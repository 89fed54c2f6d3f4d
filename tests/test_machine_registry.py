"""One machine registry and one canonical-tuner cache for every layer.

The paper's experiments (``get_machine``) and the fleet (``class_machine``)
read one registry of built machines, and the experiments'
``get_canonical``, the fleet's ``canonical_for`` and the dataset rows all
read one canonical-tuner cache kept on the machine object, so a paper run
and a fleet run on machine A share one install-time profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fleet
from repro.core.canonical import CanonicalTuner, canonical_tuner
from repro.experiments.common import get_canonical, get_machine
from repro.topology import (
    class_machine,
    fully_connected,
    machine_classes,
    register_machine_class,
)


@pytest.mark.parametrize("name", ["A", "B", "a", "b"])
def test_paper_machines_are_registry_classes(name):
    assert get_machine(name) is class_machine(name.upper())


def test_get_machine_knows_only_the_paper_machines():
    for name in ("dual", "sym4", "C"):
        with pytest.raises(KeyError):
            get_machine(name)


def test_one_canonical_cache():
    assert fleet.canonical_for is get_canonical is canonical_tuner
    for name in ("A", "B"):
        assert fleet.canonical_for(class_machine(name)) is get_canonical(get_machine(name))


def test_canonical_cache_is_per_machine_object():
    a, b = fully_connected(3, remote_bw=5.0), fully_connected(3, remote_bw=5.0)
    assert canonical_tuner(a) is canonical_tuner(a)
    assert canonical_tuner(a) is not canonical_tuner(b)
    np.testing.assert_array_equal(canonical_tuner(b).weights([1]), CanonicalTuner(b).weights([1]))


def test_register_machine_class_round_trips():
    register_machine_class("tiny2", lambda: fully_connected(2))
    try:
        assert "tiny2" in machine_classes()
        assert fleet.machine_classes() == machine_classes()
        machine = class_machine("tiny2")
        assert machine.num_nodes == 2
        assert fleet.build_fleet((("tiny2", 2),))[1].machine is machine
    finally:
        register_machine_class("tiny2", None)
    assert "tiny2" not in machine_classes()
    with pytest.raises(ValueError):
        class_machine("tiny2")

"""The machine-class registry: one shared ``Machine`` per named topology.

A *machine class* names a topology recipe ("A", "B", "dual", ...). Every
user of one class shares a single :class:`~repro.topology.Machine`
instance, so the per-machine memoised state (``machine_tables`` for the
batched solver, the canonical tuner's profiles) is computed once per class
— the paper's experiments and the fleet's machines read one profile, and
the fleet scales in machine *count* without rescaling setup cost.

Custom topologies plug in through :func:`register_machine_class`, which
accepts any zero-argument builder returning a ``Machine`` (e.g. a closure
over :func:`repro.topology.builders.fully_connected`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.topology.builders import (
    dual_socket,
    fully_connected,
    machine_a,
    machine_b,
    ring,
)
from repro.topology.machine import Machine

#: Built-in machine classes. "A"/"B" are the paper's machines; the rest
#: exercise the custom-topology path with small symmetric/ring fabrics.
_CLASS_BUILDERS: Dict[str, Callable[[], Machine]] = {
    "A": machine_a,
    "B": machine_b,
    # Distinct names: several builders default to one shared name
    # ("fully-connected", "ring"), so reports can tell the classes apart.
    "dual": lambda: dual_socket(
        nodes_per_socket=2, cores_per_node=4, name="fleet-dual"
    ),
    "sym4": lambda: fully_connected(
        4, cores_per_node=4, local_bw=20.0, remote_bw=10.0, name="fleet-sym4"
    ),
    "ring4": lambda: ring(
        4, cores_per_node=4, local_bw=20.0, link_bw=8.0, name="fleet-ring4"
    ),
}

_CLASS_CACHE: Dict[str, Machine] = {}


def machine_classes() -> Tuple[str, ...]:
    """Registered machine-class names, sorted."""
    return tuple(sorted(_CLASS_BUILDERS))


def register_machine_class(
    name: str, builder: Optional[Callable[[], Machine]]
) -> None:
    """Register (or replace) a machine class backed by ``builder``.

    Passing ``None`` unregisters the class (tests use this to keep the
    registry clean)."""
    if not name:
        raise ValueError("machine class name must be non-empty")
    if builder is None:
        _CLASS_BUILDERS.pop(name, None)
    else:
        _CLASS_BUILDERS[name] = builder
    _CLASS_CACHE.pop(name, None)


def class_machine(name: str) -> Machine:
    """The shared ``Machine`` instance of one class (built on first use)."""
    if name not in _CLASS_BUILDERS:
        raise ValueError(
            f"unknown machine class {name!r}; registered: {machine_classes()}"
        )
    if name not in _CLASS_CACHE:
        _CLASS_CACHE[name] = _CLASS_BUILDERS[name]()
    return _CLASS_CACHE[name]


def get_machine(name: str) -> Machine:
    """The paper's machine A or B (case-insensitive): the shared instance
    of registry class ``"A"``/``"B"``."""
    key = name.upper()
    if key not in ("A", "B"):
        raise KeyError(f"unknown machine {name!r}; use 'A' or 'B'")
    return class_machine(key)

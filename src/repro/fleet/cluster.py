"""Fleet construction: heterogeneous mixes of registered machine classes.

Machine classes live in :mod:`repro.topology.registry`; every fleet
machine of one class shares the class's single ``Machine`` instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.topology import Machine, class_machine


@dataclass(frozen=True)
class FleetNode:
    """One machine of the fleet: a stable id, its class, and the shared
    ``Machine`` instance of that class."""

    mid: int
    class_name: str
    machine: Machine = field(repr=False)


def build_fleet(mix: Sequence[Tuple[str, int]]) -> List[FleetNode]:
    """Instantiate a heterogeneous fleet from ``[(class_name, count), ...]``.

    Machine ids are assigned in mix order, so the mix tuple fully
    determines the fleet layout (and therefore the run fingerprint).
    """
    nodes: List[FleetNode] = []
    for class_name, count in mix:
        if count < 0:
            raise ValueError(f"negative machine count for class {class_name!r}")
        machine = class_machine(class_name)
        for _ in range(count):
            nodes.append(FleetNode(len(nodes), class_name, machine))
    if not nodes:
        raise ValueError("fleet mix resolves to zero machines")
    return nodes


def parse_mix(text: str) -> Tuple[Tuple[str, int], ...]:
    """Parse a CLI mix string like ``"A:16,B:16,dual:32"``."""
    mix: List[Tuple[str, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        try:
            cnt = int(count) if count else 1
        except ValueError:
            raise ValueError(f"bad mix entry {part!r}; expected 'class:count'")
        if cnt < 1:
            raise ValueError(f"bad mix entry {part!r}; count must be >= 1")
        mix.append((name.strip(), cnt))
    if not mix:
        raise ValueError(f"empty fleet mix {text!r}")
    return tuple(mix)

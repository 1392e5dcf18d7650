"""EPFL-class large arithmetic benchmarks (the *scale* tier).

The paper's corpus tops out at MCNC scale (≤135 inputs, a few thousand
MIG nodes).  The related mapping work this reproduction integrates with
(CONTRA, HIPE-MAGIC) evaluates on EPFL arithmetic circuits orders of
magnitude larger, so this module generates comparable structures —
ripple-carry adders and Wallace-tree multipliers — from the same
exactly-specified full/half-adder builders as the bundled corpus,
scaled until the resulting MIGs pass 100k gates.

The generators are deterministic (no RNG), so the tier is reproducible
byte-for-byte: ``repro-synth bench --what scale`` records R/S and wall
time per circuit in BENCH_runtime.json, and ``repro-synth obs gate
--what scale`` judges a run against that history.

Gate counts below are *MIG* gates after :func:`mig_from_netlist` (each
XOR costs 3 majority gates, each MAJ carry costs 1):

=============  ========
name           MIG size
=============  ========
rca1536        10,752
wallace32      8,352
wallace64      33,474
wallace128     132,627
=============  ========
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..network import GateType, Netlist
from .builders import _full_adder, _half_adder, _NetNamer, adder_netlist


def wallace_multiplier_netlist(width: int, name: str = "wallace") -> Netlist:
    """``a * b`` with ``width``-bit operands via Wallace-tree reduction.

    Partial products fill ``2*width - 1`` columns; full/half adders
    compress every column to at most two rows per round (carries spill
    into the next column), and a final ripple pass propagates the
    remaining two rows into the ``2*width``-bit product.
    """
    netlist = Netlist(name)
    namer = _NetNamer()
    a = [netlist.add_input(f"a{i}") for i in range(width)]
    b = [netlist.add_input(f"b{i}") for i in range(width)]
    columns: List[List[str]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            pp = namer.fresh("pp")
            netlist.add_gate(pp, GateType.AND, [a[i], b[j]])
            columns[i + j].append(pp)
    while any(len(column) > 2 for column in columns):
        next_columns: List[List[str]] = [[] for _ in range(len(columns) + 1)]
        for i, column in enumerate(columns):
            j = 0
            while len(column) - j >= 3:
                s, carry = _full_adder(
                    netlist, namer, column[j], column[j + 1], column[j + 2]
                )
                next_columns[i].append(s)
                next_columns[i + 1].append(carry)
                j += 3
            if len(column) - j == 2:
                s, carry = _half_adder(netlist, namer, column[j], column[j + 1])
                next_columns[i].append(s)
                next_columns[i + 1].append(carry)
                j += 2
            next_columns[i].extend(column[j:])
        while len(next_columns) > 2 * width and not next_columns[-1]:
            next_columns.pop()
        columns = next_columns
    # Final carry-propagate pass over the (≤2)-row columns.
    carry: str = ""
    product: List[str] = []
    for column in columns:
        operands = list(column)
        if carry:
            operands.append(carry)
        if not operands:
            zero = namer.fresh("zero")
            netlist.add_gate(zero, GateType.CONST0, [])
            product.append(zero)
            carry = ""
        elif len(operands) == 1:
            product.append(operands[0])
            carry = ""
        elif len(operands) == 2:
            s, carry = _half_adder(netlist, namer, operands[0], operands[1])
            product.append(s)
        else:
            s, carry = _full_adder(
                netlist, namer, operands[0], operands[1], operands[2]
            )
            product.append(s)
    if carry:
        product.append(carry)
    for bit in product[: 2 * width]:
        netlist.set_output(bit)
    return netlist


_SCALE_BUILDERS: Dict[str, Callable[[], Netlist]] = {
    "rca1536": lambda: adder_netlist(1536, name="rca1536"),
    "wallace32": lambda: wallace_multiplier_netlist(32, name="wallace32"),
    "wallace64": lambda: wallace_multiplier_netlist(64, name="wallace64"),
    "wallace128": lambda: wallace_multiplier_netlist(128, name="wallace128"),
}


def scale_names() -> List[str]:
    """The scale-tier benchmark names, smallest first."""
    return list(_SCALE_BUILDERS)


def load_scale_netlist(name: str) -> Netlist:
    """Build a scale-tier netlist by name (raises KeyError on unknown)."""
    if name not in _SCALE_BUILDERS:
        raise KeyError(
            f"unknown scale benchmark {name!r} "
            f"(expected one of {', '.join(_SCALE_BUILDERS)})"
        )
    netlist = _SCALE_BUILDERS[name]()
    netlist.validate()
    return netlist


def load_scale_mig(name: str):
    """Build a fresh MIG for a scale-tier benchmark (safe to mutate)."""
    from ..mig.build import mig_from_netlist

    return mig_from_netlist(load_scale_netlist(name))

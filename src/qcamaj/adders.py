"""One-bit full adder designs in majority logic.

Every design computes Carry = M(A,B,Cin) and differs in how Sum is wired.
Sum and Carry share one node pool per design, so the census counts a
subterm used by both outputs once.

classic               Sum = M(M(A',B,Cin), M(A,B',Cin), M(A,B,Cin'))
classic-simplified    Sum = M(M(A',B,Cin), M(A,B',Cin), Cin')
three-gate            Sum = M(Carry', Cin, M(A,B,Cin'))
single-maj5           Sum = M5(A,B,Cin,Carry',Carry')

The last form feeds one inverted carry node into two operand slots of a
five-input majority gate, which is what gets the census down to one
three-input gate, one five-input gate, and one inverter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import (CostReport, Network, NetworkBuilder, combined_cost,
                      truth_table)
from .truthtable import TruthTable

ADDER_VARS = ("A", "B", "Cin")


@dataclass(frozen=True)
class AdderDesign:
    name: str
    sum_net: Network
    carry_net: Network

    def cost(self) -> CostReport:
        return combined_cost((self.sum_net, self.carry_net))


def _base(builder: NetworkBuilder):
    a = builder.input(0)
    b = builder.input(1)
    cin = builder.input(2)
    return a, b, cin


def adder_classic() -> AdderDesign:
    """Five majority gates and three inverters."""
    b = NetworkBuilder(3)
    a, bb, cin = _base(b)
    na, nb, ncin = b.invert(a), b.invert(bb), b.invert(cin)
    carry = b.maj3(a, bb, cin)
    s = b.maj3(b.maj3(na, bb, cin), b.maj3(a, nb, cin), b.maj3(a, bb, ncin))
    return AdderDesign("classic", b.build(s), b.build(carry))


def adder_classic_simplified() -> AdderDesign:
    """Classic form with the third inner gate replaced by Cin' alone,
    which preserves the sum; four majority gates and three inverters."""
    b = NetworkBuilder(3)
    a, bb, cin = _base(b)
    na, nb, ncin = b.invert(a), b.invert(bb), b.invert(cin)
    carry = b.maj3(a, bb, cin)
    s = b.maj3(b.maj3(na, bb, cin), b.maj3(a, nb, cin), ncin)
    return AdderDesign("classic-simplified", b.build(s), b.build(carry))


def adder_three_gate() -> AdderDesign:
    """Three majority gates and two inverters, reusing the carry."""
    b = NetworkBuilder(3)
    a, bb, cin = _base(b)
    carry = b.maj3(a, bb, cin)
    s = b.maj3(b.invert(carry), cin, b.maj3(a, bb, b.invert(cin)))
    return AdderDesign("three-gate", b.build(s), b.build(carry))


def adder_single_maj5() -> AdderDesign:
    """One maj3, one maj5, one inverter.  The single inverted-carry node
    occupies two operand slots of the five-input gate."""
    b = NetworkBuilder(3)
    a, bb, cin = _base(b)
    carry = b.maj3(a, bb, cin)
    ncarry = b.invert(carry)
    s = b.maj5(a, bb, cin, ncarry, ncarry)
    return AdderDesign("single-maj5", b.build(s), b.build(carry))


ALL_ADDERS = (adder_single_maj5, adder_three_gate, adder_classic,
              adder_classic_simplified)


@dataclass(frozen=True)
class AuditRow:
    """One audited function: its minterm set and two bundled expression
    forms, one in three-input gates only and one using five-input
    gates."""

    minterms: frozenset[int]
    maj3_form: str
    maj5_form: str


def audit_entries() -> tuple[AuditRow, ...]:
    """The six bundled two-form functions, kept exactly as shipped.

    The rows are audited rather than trusted: the verifier reports
    whatever the truth-table comparison computes for each form,
    including rows that fail under the documented variable ordering.
    """
    rows = (
        ((7,), "M(M(A,B,0),C,0)", "M5(0,0,A,B,C)"),
        ((3, 4, 5, 6, 7), "M(M(B,C,0),A,1)", "M5(A,A,B,C,1)"),
        ((3, 6, 7), "M(0,B,M(A,C,1))", "M5(A,B,B,C,0)"),
        ((1, 2, 3, 4, 5, 6, 7), "M(M(A,B,1),C,1)", "M5(A,B,C,1,1)"),
        ((1, 2, 7), "M(M(A,B,C'),M(A,B',C),M(A',B,0))",
         "M5(M(A,B,C)',M5(A,A,B,C,1),A,B,C)"),
        ((0, 3, 5, 6, 7), "M(M(A,B,0),M(A',B',C),M(A,C',1))",
         "M(M5(A,B,B,C,C),1,M5(A,B,C,1,1)')"),
    )
    return tuple(AuditRow(frozenset(m), m3, m5) for m, m3, m5 in rows)


@dataclass(frozen=True)
class AdderRow:
    """Comparison record for one design."""

    name: str
    cost: CostReport
    sum_ok: bool
    carry_ok: bool


def compare_adders() -> list[AdderRow]:
    """Cost census plus an exhaustive arithmetic check per design.

    The check demands 2*Carry + Sum == A + B + Cin on all eight input
    rows, with the carry and sum verified separately.  At minterm k,
    A + B + Cin is the number of one bits in k.
    """
    totals = [bin(k).count("1") for k in range(8)]
    sum_spec = TruthTable(3, tuple(t & 1 for t in totals))
    carry_spec = TruthTable(3, tuple(t >> 1 for t in totals))
    rows = []
    for make in ALL_ADDERS:
        design = make()
        rows.append(AdderRow(design.name, design.cost(),
                             truth_table(design.sum_net) == sum_spec,
                             truth_table(design.carry_net) == carry_spec))
    return rows


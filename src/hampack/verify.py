"""Packing verifier: is a claimed family really a Hamilton decomposition witness.

The verifier takes the final digraph, the claimed cycle family and the
expected family size, and checks four independent properties: every member
is a Hamilton cycle of the vertex set, every edge exists in the digraph, no
ordered edge is used twice, and the family size matches the expected
two-sided minimum degree.  The first violated property produces a witness
describing the offending cycle or edge.
"""

from dataclasses import dataclass

from .graphs import Cycle, Digraph, degree_profile

__all__ = ["VerifyResult", "verify_packing", "delta_pm"]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    hamiltonian_ok: bool
    subset_ok: bool
    disjoint_ok: bool
    count_ok: bool
    witness: str | None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "hamiltonian_ok": self.hamiltonian_ok,
            "subset_ok": self.subset_ok,
            "disjoint_ok": self.disjoint_ok,
            "count_ok": self.count_ok,
            "witness": self.witness,
        }


def delta_pm(digraph: Digraph) -> int:
    """min over vertices of min(out-degree, in-degree)."""
    return degree_profile(digraph)["delta_pm"]


def verify_packing(d_final: Digraph, family, expected_count: int) -> VerifyResult:
    """Check a claimed family of edge-disjoint Hamilton cycles.

    family members may be Cycle objects or plain vertex sequences.  The
    count check compares the family size against expected_count, normally
    the two-sided minimum degree of d_final.
    """
    n = d_final.n
    cycles: list[Cycle] = []
    for member in family:
        cycles.append(member if isinstance(member, Cycle) else Cycle(member))

    hamiltonian_ok = True
    subset_ok = True
    disjoint_ok = True
    witness = None

    for idx, c in enumerate(cycles):
        if len(c) != n or set(c.vertices) != set(range(1, n + 1)):
            hamiltonian_ok = False
            if witness is None:
                witness = f"cycle {idx} is not a Hamilton cycle of 1..{n}"
            continue
        if n < 2:
            hamiltonian_ok = False
            if witness is None:
                witness = f"cycle {idx}: no Hamilton cycle exists on fewer than 2 vertices"

    for idx, c in enumerate(cycles):
        for u, v in c.edges():
            if not d_final.has_edge(u, v):
                subset_ok = False
                if witness is None:
                    witness = f"cycle {idx} uses edge ({u},{v}) absent from the digraph"
                break
        else:
            continue
        break

    used: dict[tuple[int, int], int] = {}
    for idx, c in enumerate(cycles):
        for e in c.edges():
            if e in used:
                disjoint_ok = False
                if witness is None:
                    witness = (f"edge ({e[0]},{e[1]}) appears in cycles "
                               f"{used[e]} and {idx}")
                break
            used[e] = idx
        else:
            continue
        break

    count_ok = len(cycles) == expected_count
    if not count_ok and witness is None:
        witness = f"family has {len(cycles)} cycles, expected {expected_count}"

    ok = hamiltonian_ok and subset_ok and disjoint_ok and count_ok
    return VerifyResult(ok, hamiltonian_ok, subset_ok, disjoint_ok, count_ok, witness)


"""Worked channel-type reductions of the realisation circuit.

Each entry builds the four algebras of one classic supermap type, draws a
random deterministic supermap of that type, realises it, and checks the
structural facts that characterise the reduced circuit (which classical
wires are trivial, which outputs are classical, how the memory bound
specialises).
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .algebra import MultiMatrixAlgebra
from .cpmaps import apply
from .gen import random_supermap_from_circuit
from .realize import CircuitRealisation, check_realisation, realize
from .supermap import Supermap


@dataclass
class DemoResult:
    name: str
    description: str
    supermap: Supermap
    realisation: CircuitRealisation
    assertions: List[Tuple[str, bool]]
    roundtrip_deviation: float

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.assertions)


def _run(name, description, a, b, c, d, p_dim, structural, seed):
    s = random_supermap_from_circuit(a, b, c, d, p_dim=p_dim, seed=seed)
    r = realize(s)  # gated on verify_deterministic: it returns only on a pass
    check = check_realisation(r, s, trials=1, seed=seed + 1)
    assertions = [("supermap verifies as deterministic", True)]
    assertions += structural(r)
    assertions.append(("realisation reproduces the supermap", check.passed))
    dev = max(check.spanning_deviation, check.trial_deviation)
    return DemoResult(name, description, s, r, assertions, dev)


def demo_cdp08(seed: int = 11) -> DemoResult:
    """Quantum channels to quantum channels: all classical wires trivial."""
    a = MultiMatrixAlgebra.single(2, "Hin")
    b = MultiMatrixAlgebra.single(2, "Hout")
    c = MultiMatrixAlgebra.single(2, "Kin")
    d = MultiMatrixAlgebra.single(2, "Kout")

    def structural(r: CircuitRealisation):
        singleton = all(len(x) == 1 for x in (r.a, r.b, r.c, r.d))
        return [
            ("all classical index sets are singletons", singleton),
            ("copy channels degenerate to identities", singleton),
            ("memory bound is dim(H_in) * dim(K_in)", r.p_bound == 4),
        ]

    return _run(
        "cdp08",
        "supermaps between ordinary quantum channels: the circuit is "
        "pre-processing and post-processing around the slot with memory P",
        a, b, c, d, 2, structural, seed,
    )


def demo_multimeter(seed: int = 12) -> DemoResult:
    """Multimeters to multimeters: fully classical outputs on both sides."""
    a = MultiMatrixAlgebra((("Hx0", 2), ("Hx1", 2)))
    b = MultiMatrixAlgebra.classical(2, "j")
    c = MultiMatrixAlgebra((("Ky0", 2), ("Ky1", 2)))
    d = MultiMatrixAlgebra.classical(2, "l")

    def structural(r: CircuitRealisation):
        return [
            ("plugged slot output is classical", all(dim == 1 for dim in r.b.dims)),
            (
                "post-processing quantum outputs are 1-dimensional",
                all(dim == 1 for dim in r.g_channel.target.dims),
            ),
        ]

    return _run(
        "multimeter",
        "supermaps between classically controlled measurement devices",
        a, b, c, d, 2, structural, seed,
    )


def demo_povm_to_state(seed: int = 13) -> DemoResult:
    """POVMs to states: prepare a bipartite state, measure one half."""
    a = MultiMatrixAlgebra.single(2, "H")
    b = MultiMatrixAlgebra.classical(2, "j")
    c = MultiMatrixAlgebra.single(1, "triv")
    d = MultiMatrixAlgebra.single(2, "K")

    def structural(r: CircuitRealisation):
        out = [("input algebra is trivial", r.c.dim == 1)]
        prep = apply(r.e_channel, r.c.identity())
        out.append(
            (
                "pre-processing is a bipartite state preparation",
                abs(prep.trace() - 1.0) < 1e-9,
            )
        )
        out.append(
            ("POVM slot consumes one part of the preparation", r.a.dim > 1)
        )
        return out

    return _run(
        "povm-to-state",
        "the most general map from measurements on H to states of K",
        a, b, c, d, 2, structural, seed,
    )


def demo_state_to_povm(seed: int = 14) -> DemoResult:
    """States to POVMs: a bipartite measurement on state plus probe."""
    a = MultiMatrixAlgebra.single(1, "triv")
    b = MultiMatrixAlgebra.single(2, "H")
    c = MultiMatrixAlgebra.single(2, "K")
    d = MultiMatrixAlgebra.classical(2, "l")

    def structural(r: CircuitRealisation):
        return [
            ("slot input is trivial: the slot holds a state", r.a.dim == 1),
            ("final stage is a measurement", all(dim == 1 for dim in r.d.dims)),
            ("memory bound collapses to dim(K_in)", r.p_bound == r.c.dims[0]),
        ]

    return _run(
        "state-to-povm",
        "the most general map from states of H to measurements on K",
        a, b, c, d, 2, structural, seed,
    )


def demo_classical_to_quantum(seed: int = 15) -> DemoResult:
    """Classical channels to quantum channels."""
    a = MultiMatrixAlgebra.classical(2, "i")
    b = MultiMatrixAlgebra.classical(2, "j")
    c = MultiMatrixAlgebra.single(2, "H")
    d = MultiMatrixAlgebra.single(2, "K")

    def structural(r: CircuitRealisation):
        return [
            ("slot carries a classical channel", all(dim == 1 for dim in r.a.dims + r.b.dims)),
            ("memory dimension bounded by dim(H)", r.p_dim <= r.c.dims[0]),
        ]

    return _run(
        "classical-to-quantum",
        "instrument on H, classical post-processing of the outcome, "
        "then an outcome-controlled channel into K",
        a, b, c, d, 2, structural, seed,
    )


def demo_quantum_to_classical(seed: int = 16) -> DemoResult:
    """Quantum channels to classical channels."""
    a = MultiMatrixAlgebra.single(2, "H")
    b = MultiMatrixAlgebra.single(2, "K")
    c = MultiMatrixAlgebra.classical(2, "k")
    d = MultiMatrixAlgebra.classical(2, "l")

    def structural(r: CircuitRealisation):
        return [
            (
                "pre-processing is a controlled bipartite state initialisation",
                all(dim == 1 for dim in r.c.dims),
            ),
            ("final stage is a controlled measurement", all(dim == 1 for dim in r.d.dims)),
        ]

    return _run(
        "quantum-to-classical",
        "controlled state preparation, the channel slot, then a controlled POVM",
        a, b, c, d, 2, structural, seed,
    )


DEMOS: Dict[str, Callable[[], DemoResult]] = {
    "cdp08": demo_cdp08,
    "multimeter": demo_multimeter,
    "povm-to-state": demo_povm_to_state,
    "state-to-povm": demo_state_to_povm,
    "classical-to-quantum": demo_classical_to_quantum,
    "quantum-to-classical": demo_quantum_to_classical,
}


def run_demo(name: str) -> DemoResult:
    return DEMOS[name]()

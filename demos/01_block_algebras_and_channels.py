"""A tour of multimatrix algebras, hybrid states, and block channels.

Channels here are completely positive trace-preserving maps between direct
sums of matrix blocks, so one object covers quantum channels, POVMs,
instruments, classically controlled families, and classical stochastic
matrices.  This script walks through the basic calculus.
"""

import numpy as np

import supermap_forge as sf
from supermap_forge import gen

# An algebra is an ordered list of labelled blocks.  C (+) M2 models one
# classical bit whose "1" branch carries a qubit.
alg = sf.MultiMatrixAlgebra((("flag", 1), ("qubit", 2)))
print("algebra blocks:", alg.blocks, "total dim:", alg.dim)

# States are positive block operators with total trace one: a probability
# distribution over blocks plus a density matrix per block.
rho = gen.random_state(alg, seed=1)
print("state distribution over blocks:", np.round(rho.distribution, 3))

# A channel into a 3-outcome classical register: a POVM on the hybrid input.
outcomes = sf.MultiMatrixAlgebra.classical(3, "out")
povm = gen.random_channel(alg, outcomes, seed=2)
print("POVM is trace preserving:", sf.is_tp(povm).ok)
print("outcome distribution:", np.round(
    [sf.apply(povm, rho.operator).block(k)[0, 0].real for k in range(3)], 3))

# Classical channels between classical algebras are stochastic matrices.
c2 = sf.MultiMatrixAlgebra.classical(2)
stoch = gen.random_channel(c2, c2, seed=3)
matrix = np.array([[stoch.choi(j, i)[0, 0].real for i in range(2)] for j in range(2)])
print("classical channel (column-stochastic):\n", np.round(matrix, 3))

# Every CP map has a Kraus family, read off its Choi blocks; for a channel
# the operators of each source block i satisfy sum_j sum K† K = Id.
kd = sf.kraus_from_choi(povm)
print("Kraus rank per (source, target) pair:",
      {key: kd.rank(*key) for key in sorted(kd.ops)})
tp_defect = max(
    np.linalg.norm(sum(k.conj().T @ k for j in range(len(outcomes)) for k in kd.ops[(i, j)])
                   - np.eye(d))
    for i, d in enumerate(alg.dims)
)
print("||sum K†K - I||:", tp_defect)

# The Hilbert-Schmidt dual swaps trace preservation for unitality.
dual = sf.hs_dual(povm)
unital = sf.apply(dual, dual.source.identity()).allclose(dual.target.identity())
print("dual is unital:", unital)

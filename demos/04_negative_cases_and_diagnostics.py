"""What failure looks like: damaged supermaps and the diagnostics that
catch them."""

import supermap_forge as sf
from supermap_forge import gen

a = sf.MultiMatrixAlgebra.single(2, "H")
s = gen.random_supermap_from_circuit(a, a, a, a, p_dim=2, seed=99)
print("healthy:", sf.verify_deterministic(s).summary())

# Breaking trace preservation: the verifier sees a unitality residual equal
# to the perturbation size, and the brute-force oracle rejects too.
bad_tp = gen.perturb_supermap(s, 2e-3, "tp-breaking", seed=1)
report = sf.verify_deterministic(bad_tp)
print("tp-broken:", report.summary())
basis = gen.tp_affine_basis(a, a)
print("oracle also rejects:", not gen.brute_force_tp_preservation(bad_tp, basis))

# Breaking complete positivity: one Choi block dips below zero by epsilon.
bad_cp = gen.perturb_supermap(s, 5e-3, "cp-breaking", seed=2)
witness = sf.is_cp(bad_cp.inner)
print(f"cp-broken: block {witness.block} has eigenvalue {witness.min_eigenvalue:.3e}")

# Realisation checks the conditions itself: the two dilations of the
# marginal map disagree, so kernel containment fails.
try:
    sf.realize(bad_tp)
except sf.ResidualTooLargeError as exc:
    print("realize on damaged supermap:", exc)

# The decomposition residual quantifies how far an element sits from the
# identity-times-state form required of dualised supermap outputs.
from supermap_forge.supermap import embed_with_out_identity

hom = s.source_hom
rho = gen.random_state(a, seed=3).operator
clean = embed_with_out_identity(rho, hom)
dec = sf.lemma1_decompose(clean, hom)
print("clean decomposition residual:", dec.residual)
noisy = clean + 1e-2 * sf.traceout_kernel_basis(hom)[0]
print("noisy decomposition residual:", sf.lemma1_decompose(noisy, hom).residual)

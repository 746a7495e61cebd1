"""
Graph spectra, the frequency transform, and smooth signals
==========================================================

Builds the bundled 118-bus grid graph, inspects its Laplacian spectrum,
and shows what "smooth" means for signals drawn from the package prior.
"""

import numpy as np

from gspest import bundled_ieee118, build_laplacian, gft, igft, sample_prior, SmoothPrior

# the bundled grid ships as a branch table; the Laplacian is that of its
# susceptance-weighted branch graph
grid = bundled_ieee118()
sg = build_laplacian(grid.graph())
lam = sg.eigenvalues
print(f"vertices: {sg.n_vertices}, branches: {len(grid.branch_values())}")
print(f"eigenvalues: min {lam[0]:.2e}, second {lam[1]:.4f}, max {lam[-1]:.1f}")

# the transform is orthonormal: analysis then synthesis is the identity,
# and norms are preserved
rng = np.random.default_rng(0)
x = rng.standard_normal(sg.n_vertices)
xt = gft(sg, x)
print(f"round trip error: {np.max(np.abs(igft(sg, xt) - x)):.2e}")
print(f"norm gap: {abs(np.linalg.norm(xt) - np.linalg.norm(x)):.2e}")

# prior draws put variance beta/lambda_n on each frequency, so energy
# concentrates at the low end of the spectrum
prior = SmoothPrior(sg, beta=3.0)
draws = sample_prior(prior, 2000, seed=1)
power = gft(sg, draws).var(axis=0)
half = sg.n_vertices // 2
print(f"low-frequency share of power: {power[:half].sum() / power.sum():.1%}")

# smoothness in the vertex domain: the Dirichlet energy x'Lx of prior
# draws sits near beta*(N-1), far below white noise of equal total power
energy = np.einsum("ij,jk,ik->i", draws, sg.laplacian, draws).mean()
white = rng.standard_normal((2000, sg.n_vertices))
white *= np.sqrt((draws**2).sum(axis=1).mean() / (white**2).sum(axis=1).mean())
white_energy = np.einsum("ij,jk,ik->i", white, sg.laplacian, white).mean()
print(f"prior Dirichlet energy {energy:.1f} vs equal-power white {white_energy:.1f}")

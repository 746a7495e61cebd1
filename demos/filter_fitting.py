"""
Fitting parametric frequency responses to sample moments
========================================================

The spectral estimator's per-frequency gain is the ratio of two moment
diagonals. Parametric filters (inverse-polynomial, rational, low-rank
rational) smooth that ratio with a handful of coefficients, which is what
makes them robust at small training sizes and cheap to refresh when the
graph changes.
"""

import numpy as np

from gspest import (
    ac_measurement_model,
    bundled_ieee118,
    compute_moments,
    derive,
    fit_arma,
    fit_lpi,
    fit_lr_arma,
    generate,
    gsp_response,
    reduce_spectrum,
)

grid = bundled_ieee118()
model = ac_measurement_model(grid, beta=3.0, sigma2=0.05)
sg = model.sg

# moments from a 500-sample training set
ts = generate(model, sg, 500, derive(0, "train", 500))
m = compute_moments(ts, model.noise.covariance)
target = gsp_response(m)

# three fits against the same moments
lpi = fit_lpi(m, sg, order=6, mu=1e-6)
arma = fit_arma(m, sg, num_order=3, den_order=3, mu=1e-6)
reduced = reduce_spectrum(sg, 0.3)
lr = fit_lr_arma(m, reduced, num_order=2, den_order=2, mu=1e-6)

def coefficient_count(spec):
    if spec.kind == "lpi":
        return spec.taps.size
    # denominator[0] is fixed at 1, not a free coefficient
    return spec.numerator.size + spec.denominator.size - 1

print(f"target response range: [{target.min():.3f}, {target.max():.3f}]")
for fit in (lpi, arma, lr):
    err = np.abs(fit.response - target)
    print(
        f"{fit.label:12s} kind={fit.spec.kind:7s} "
        f"coefficients={coefficient_count(fit.spec):2d} "
        f"max|fit-target|={err.max():.4f} converged={fit.converged}"
    )

# the low-rank fit is exactly zero above its cutoff
print(f"lr cutoff {reduced.n_kept}: response above cutoff "
      f"max {np.abs(lr.response[reduced.n_kept:]).max():.1e}")

# coefficients are small and interpretable
print("lpi taps:", np.array2string(lpi.spec.taps, precision=3))
print("arma numerator:", np.array2string(arma.spec.numerator, precision=3))
print("arma denominator:", np.array2string(arma.spec.denominator, precision=3))

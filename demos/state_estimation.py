"""
Grid state estimation across training sizes
===========================================

Recovers bus voltage phases from noisy active-power measurements on the
bundled 118-bus grid. The unconstrained sample-LMMSE estimator needs a
large training set to stabilize its full gain matrix; the spectral
estimators fit N (or just a few) numbers instead and are already accurate
at P on the order of the graph size.
"""

import numpy as np

from gspest import (
    ac_measurement_model,
    almmse,
    bundled_ieee118,
    compute_moments,
    derive,
    draw_test_set,
    fit_arma,
    fit_lpi,
    generate,
    gsp_lmmse,
    sample_lmmse,
    squared_errors,
)

SEED = 0
grid = bundled_ieee118()
model = ac_measurement_model(grid, beta=3.0, sigma2=0.05)
sg = model.sg

# one common test set: every estimator sees identical draws, so MSE
# differences are paired
x_test, y_test = draw_test_set(model, 2000, derive(SEED, "test", 0, 0))

def mse(est):
    return squared_errors(est, x_test, y_test).mean()

print(f"{'P':>6s} {'lmmse':>8s} {'gsp':>8s} {'lpi':>8s} {'arma':>8s}")
for p in (59, 118, 500, 2000):
    ts = generate(model, p, derive(SEED, "train", p))
    m = compute_moments(ts, model.sigma2)
    row = [
        mse(sample_lmmse(m)),
        mse(gsp_lmmse(m)),
        mse(fit_lpi(m, order=6, mu=1e-6)),
        mse(fit_arma(m, num_order=3, den_order=3, mu=1e-6)),
    ]
    print(f"{p:6d} " + " ".join(f"{v:8.3f}" for v in row))

# the training-free baseline linearizes the power flow around zero and
# uses the prior in closed form; it never sees the nonlinearity or the
# offset the conductances put on the measurements, which is exactly why
# the sample-moment estimators above earn their keep
base = almmse(sg, beta=3.0, sigma2=0.05)
print(f"training-free linearized baseline: {mse(base):8.3f}")

# and the floor: a large training set makes the two families agree
ts = generate(model, 100_000, derive(SEED, "train", 100_000))
m = compute_moments(ts, model.sigma2)
print(f"P=100000 lmmse {mse(sample_lmmse(m)):.3f} vs gsp {mse(gsp_lmmse(m)):.3f}")

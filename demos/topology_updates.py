"""
Refreshing fitted estimators after the graph changes
====================================================

A fitted filter stores a few coefficients of a function of the Laplacian,
so when lines or buses are added the estimator is refreshed by evaluating
the same coefficients on the new spectrum; no retraining. The
unconstrained sample-LMMSE gain has no such structure and goes stale.
"""

import numpy as np

from gspest import (
    ac_measurement_model,
    bundled_ieee118,
    compute_moments,
    derive,
    draw_test_set,
    fit_arma,
    generate,
    gsp_lmmse,
    perturb_grid,
    remap_estimator,
    sample_lmmse,
    squared_errors,
    update_for_topology,
)

SEED = 0
grid = bundled_ieee118()
model = ac_measurement_model(grid, beta=3.0, sigma2=0.05)

# train once on the original grid
ts = generate(model, 500, derive(SEED, "train", 500))
m = compute_moments(ts, model.sigma2)
stale_lmmse = sample_lmmse(m)
stale_gsp = gsp_lmmse(m)
arma = fit_arma(m, num_order=3, den_order=3, mu=1e-6)

# add 7 transmission lines, ten times; evaluate on the perturbed grid
print("added lines: stale lmmse vs refreshed arma (paired MSE)")
for rep in range(10):
    new_grid, _ = perturb_grid(grid, 7, "add-edges", derive(SEED, "perturb", 7, rep))
    new_model = ac_measurement_model(new_grid, beta=3.0, sigma2=0.05)
    x, y = draw_test_set(new_model, 2000, derive(SEED, "test", 7, rep))
    refreshed = update_for_topology(arma, new_model.sg)
    stale = squared_errors(stale_lmmse, x, y).mean()
    fresh = squared_errors(refreshed, x, y).mean()
    print(f"  rep {rep}: stale {stale:7.3f} refreshed {fresh:7.3f}")

# add 4 buses: the old estimators are zero-padded onto the larger grid,
# the fitted filter is re-evaluated on the new spectrum
print("added buses: zero-padded stale fits vs refreshed arma")
for rep in range(5):
    new_grid, old = perturb_grid(grid, 4, "add-vertices", derive(SEED, "perturb", 4, rep))
    new_model = ac_measurement_model(new_grid, beta=3.0, sigma2=0.05)
    x, y = draw_test_set(new_model, 2000, derive(SEED, "test", 4, rep))
    padded_lmmse = squared_errors(remap_estimator(stale_lmmse, old), x, y).mean()
    padded_gsp = squared_errors(remap_estimator(stale_gsp, old), x, y).mean()
    refreshed = update_for_topology(arma, new_model.sg, old)
    fresh = squared_errors(refreshed, x, y).mean()
    print(
        f"  rep {rep}: padded lmmse {padded_lmmse:7.3f} "
        f"padded gsp {padded_gsp:7.3f} refreshed {fresh:7.3f}"
    )

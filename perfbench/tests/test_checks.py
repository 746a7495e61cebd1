import pytest

from checks import COLUMNS, check_report, digest, failed_rows, same_digest

FAMILIES = ("sample-lmmse", "sample-dlmmse", "gsp-lmmse", "lpi-gsp",
            "arma-gsp", "lr-arma-gsp", "almmse")
SAMPLE_MSE = {"sample-lmmse": 80.0, "sample-dlmmse": 30.0, "almmse": 1580.0}


def _report(p_values=(59, 118), wall="1.5"):
    lines = [",".join(COLUMNS)]
    for p in p_values:
        for label in FAMILIES:
            mse = SAMPLE_MSE.get(label, 12.0) / (1 + p / 100)
            lines.append(f"{label},experiment-a,P,{p},{mse!r},0.5,{wall}")
    return "\n".join(lines) + "\n"


PROP = "spectral-beats-sample-at-min-p"


def _with_mse(text, row, mse):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[4] = repr(mse)
    lines[row] = ",".join(fields)
    return fields[0], "\n".join(lines) + "\n"


def test_valid_report_passes():
    assert check_report(_report(), 14, PROP) == []
    assert failed_rows(_report()) == 0


@pytest.mark.parametrize(
    "corrupt, expected_rows",
    [
        (lambda t: t.replace("estimator,", "name,", 1), 14),
        (lambda t: t, 15),
        (lambda t: t.replace(",0.5,", ",nan,", 1), 14),
        (lambda t: t.replace(",0.5,1.5", ",0.5,1.5,extra", 1), 14),
        (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", 14),
    ],
    ids=["header", "row-count", "nan-stderr", "extra-field", "missing-row"],
)
def test_corrupted_layout_is_rejected(corrupt, expected_rows):
    assert check_report(corrupt(_report()), expected_rows, PROP)


def test_nan_mse_counts_as_failed_row_and_is_rejected():
    _, text = _with_mse(_report(), 3, float("nan"))
    assert failed_rows(text) == 1
    assert check_report(text, 14, PROP)


def test_paper_property_violation_is_rejected():
    label, bad = _with_mse(_report(), 5, 500.0)  # arma-gsp at the smallest P
    assert label == "arma-gsp"
    errors = check_report(bad, 14, PROP)
    assert errors and "arma-gsp" in errors[0]


def test_retuned_spectral_must_beat_stale_sample():
    text = _report().replace("experiment-a", "experiment-b")
    assert check_report(text, 14, "retuned-beats-stale") == []
    label, bad = _with_mse(text, 3, 9000.0)
    assert label == "gsp-lmmse"
    assert check_report(bad, 14, "retuned-beats-stale")


def test_property_gates_only_the_given_families():
    label, bad = _with_mse(_report(), 4, 9000.0)
    assert label == "lpi-gsp"
    retune = bad.replace("experiment-a", "experiment-b")
    assert check_report(retune, 14, "retuned-beats-stale")
    assert check_report(retune, 14, "retuned-beats-stale",
                        ("gsp-lmmse", "lr-arma-gsp")) == []


def test_gated_family_without_rows_is_rejected():
    text = "\n".join(line for line in _report().splitlines()
                     if not line.startswith("lr-arma-gsp,")) + "\n"
    errors = check_report(text, 12, PROP)
    assert errors and "lr-arma-gsp" in errors[0]


def test_digest_ignores_wall_ms_only():
    assert digest(_report(wall="1.5")) == digest(_report(wall="99.25"))
    assert digest(_report()) != digest(_report().replace(",0.5,", ",0.25,", 1))


def test_run_rejects_reports_that_differ_between_calls_on_one_input():
    first = _report()
    _, second = _with_mse(first, 3, 11.5)
    assert check_report(first, 14, PROP) == check_report(second, 14, PROP) == []
    assert same_digest([digest(first), digest(first)]) == []
    assert same_digest([digest(first), digest(second), digest(first)])


def test_run_with_a_single_call_is_rejected():
    assert same_digest([digest(_report())])
    assert same_digest([])

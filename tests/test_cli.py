"""CLI: exit codes, output formats, config-file precedence and round-trips."""

import json
import os
from math import isfinite, log10

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccdp import SweepGrid, errors, run_sweep
from ccdp.cli import main
from ccdp.gaps import CSV_COLUMNS, rows_to_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def opt(name, value, spaced):
    # one option as "--name=value" or as the two tokens "--name" "value"
    return (f"--{name}", str(value)) if spaced else (f"--{name}={value}",)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_point(capsys):
    code, out, err = run(capsys, "bounds", "--M", "2", "--P", "10",
                         "--c2", "4", "--rho", "0")
    assert code == 0
    assert "inner 0.953445" in out
    assert "outer(appendix) 1.953445" in out
    assert "gap 1.000000" in out
    assert err  # human summary on stderr


@pytest.mark.parametrize("argv", [
    ("bounds", "--M", "3", "--P", "10", "--c2", "4", "--rho", "-1e-3"),
    ("sweep", "--M-values", "2,3", "--P-points", "2", "--c2-points", "2",
     "--rho-values", "-1e-3,0.5"),
    ("simulate", "--target", "gp", "--M", "2", "--P", "10", "--c2", "4",
     "--alpha-bar", "0.3", "--lam", "-1e-2", "--samples", "1000"),
    ("simulate", "--target", "decomposition", "--M", "3", "--P", "1", "--c2", "1",
     "--rho", "-2.5e-1", "--samples", "10000", "--out", "-"),
])
def test_a_negative_value_with_an_exponent_is_a_value(capsys, argv):
    # "--name -1e-3" reads as "--name=-1e-3": the same output, exit 0
    code, out, err = run(capsys, *argv)
    joined = [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
    assert (code, out, err) == (0, *run(capsys, argv[0], *joined)[1:])


def test_bounds_invalid_m_names_error(capsys):
    code, out, err = run(capsys, "bounds", "--M", "1", "--P", "10", "--c2", "4")
    assert code == 2
    assert "InvalidM" in err


def test_bounds_accepts_c_and_squares_it(capsys):
    code_c, out_c, _ = run(capsys, "bounds", "--M", "2", "--P", "10", "--c", "2")
    code_c2, out_c2, _ = run(capsys, "bounds", "--M", "2", "--P", "10", "--c2", "4")
    assert code_c == code_c2 == 0
    assert out_c == out_c2


def test_bounds_conflicting_gain_flags(capsys):
    code, _, err = run(capsys, "bounds", "--M", "2", "--P", "10",
                       "--c", "2", "--c2", "9")
    assert code == 2 and "disagree" in err


def test_bounds_requires_gain(capsys):
    code, _, err = run(capsys, "bounds", "--M", "2", "--P", "10")
    assert code == 2


def test_bounds_json(capsys, tmp_path):
    out_file = tmp_path / "b.json"
    code, _, _ = run(capsys, "bounds", "--M", "3", "--P", "10", "--c2", "4",
                     "--rho", "-0.25", "--format", "json",
                     "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"config", "results", "maxGap", "certified", "warnings"}
    assert doc["results"]["inner"]["value"] > 0
    assert doc["config"]["command"] == "bounds"
    assert doc["config"]["tool_version"]


@pytest.mark.parametrize("c2", ["nan", "inf"])
def test_bounds_non_finite_gain_exits_2(capsys, c2):
    code, out, err = run(capsys, "bounds", "--M", "2", "--P", "10", "--c2", c2)
    assert code == 2 and "InvalidGain" in err
    assert "gap" not in out


@pytest.mark.parametrize("c2", ["0.5", "4", "50"])
def test_bounds_csv_row_equals_sweep_row(capsys, c2):
    code, out, _ = run(capsys, "bounds", "--M", "2", "--P", "10", "--c2", c2,
                       "--rho", "0", "--format", "csv")
    assert code == 0
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    sweep = run_sweep(SweepGrid((2,), (10.0,), (float(c2),), (0.0,)))
    assert row == rows_to_csv(sweep).splitlines()[1]
    # the theorem-statement outer is the one the sweep reports for that variant
    code, out, _ = run(capsys, "bounds", "--M", "2", "--P", "10", "--c2", c2,
                       "--rho", "0", "--format", "json")
    stated = json.loads(out)["results"]["outer_theorem"]
    sweep = run_sweep(SweepGrid((2,), (10.0,), (float(c2),), (0.0,),
                                outer_variant="theorem-statement"))
    assert (stated["value"], stated["branch"], stated["variant"]) == (
        sweep.row(0).outer, sweep.row(0).outer_branch, sweep.row(0).variant)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=st.integers() | st.sampled_from([2 ** 53, 2 ** 53 + 1, -10 ** 400]),
       P=st.floats(), gain=st.floats(), rho=st.floats(), squared=st.booleans(),
       spaced=st.booleans())
@example(M=3, P=1.5e308, gain=1e308, rho=0.0, squared=True, spaced=False)
@example(M=10 ** 400, P=10.0, gain=4.0, rho=0.0, squared=True, spaced=False)
@example(M=3, P=10.0, gain=4.0, rho=-1e-3, squared=True, spaced=True)
@example(M=2 ** 40, P=10.0, gain=1.0, rho=-1e-12, squared=True, spaced=True)
def test_bounds_gives_finite_values_or_a_documented_error(capsys, M, P, gain, rho,
                                                           squared, spaced):
    # any input, in either option form: exit 2 naming a CcdpError, or finite
    # values with inner <= outer
    code, out, err = run(capsys, "bounds", *opt("M", M, spaced), *opt("P", repr(P), spaced),
                         *opt("c2" if squared else "c", repr(gain), spaced),
                         *opt("rho", repr(rho), spaced), "--format", "json")
    if code == 2:
        name = err.split(":", 1)[0]
        assert issubclass(getattr(errors, name), errors.CcdpError) and not out
        return
    assert code == 0
    results = json.loads(out)["results"]
    inner, outer = results["inner"]["value"], results["outer_appendix"]["value"]
    assert all(map(isfinite, (inner, outer, results["outer_theorem"]["value"],
                              results["gap"])))
    assert inner <= outer and results["gap"] <= 2.25 + 1e-9


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_th3(capsys, tmp_path):
    out_file = tmp_path / "th3.json"
    code, _, err = run(capsys, "certify", "--theorem", "Th3",
                       "--out", str(out_file))
    assert code == 0
    assert "maxGap=1.000000" in err and "certified=true" in err
    doc = json.loads(out_file.read_text())
    assert doc["certified"] is True
    assert doc["maxGap"] == pytest.approx(1.0, abs=1e-9)


def test_certify_theorem_statement_exits_nonzero_with_warnings(capsys, tmp_path):
    out_file = tmp_path / "th4.json"
    code, _, err = run(capsys, "certify", "--theorem", "Th4",
                       "--variant", "theorem-statement",
                       "--P-points", "12", "--c2-points", "12",
                       "--out", str(out_file))
    assert code == 1
    assert "certified=false" in err
    doc = json.loads(out_file.read_text())
    assert doc["certified"] is False
    assert any("middle branch" in w for w in doc["warnings"])
    assert doc["maxGap"] is not None
    assert doc["results"]["grid"]["outer_variant"] == "theorem-statement"


@pytest.mark.parametrize("theorem, given, m_values, rho_values", [
    ("Th4", ("--M-values", "3,4"), [3, 4], [0.0]),
    ("Th3", ("--M-values", "2", "--rho-values", "0"), [2], [0.0]),
    ("Th5", ("--rho-values", "0.5"), [2], [0.5]),
])
def test_certify_keeps_given_axes_inside_the_model(capsys, tmp_path, theorem,
                                                   given, m_values, rho_values):
    # an axis set away from its default is certified as given, one left at
    # its default is restricted to the theorem's model
    out_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "certify", "--theorem", theorem, *given,
                     "--P-points", "3", "--c2-points", "3", "--out", str(out_file))
    grid = json.loads(out_file.read_text())["results"]["grid"]
    assert code == 0
    assert grid["m_values"] == m_values and grid["rho_values"] == rho_values


def test_certify_requires_theorem(capsys):
    code, _, err = run(capsys, "certify")
    assert code == 2 and "--theorem" in err


def test_certify_rows_out(capsys, tmp_path):
    rows_file = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "certify", "--theorem", "Th3",
                     "--P-points", "4", "--c2-points", "4",
                     "--out", str(tmp_path / "s.json"),
                     "--rows-out", str(rows_file))
    assert code == 0
    lines = rows_file.read_text().strip().split("\n")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.startswith("M,P,c,rho,variant,inner_bpcu")
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 16


# ---------------------------------------------------------------------------
# sweep / fig3 / audit / simulate
# ---------------------------------------------------------------------------

def test_sweep_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--M-values", "2,3", "--P-points", "3", "--c2-points", "3",
            "--rho-values", "0,0.5")
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_written_in_pieces_is_the_whole_text(capsys, tmp_path, monkeypatch):
    # the CSV reaches --out a few rows at a time, as the text rows_to_csv renders
    monkeypatch.setattr("ccdp.gaps.CSV_CHUNK", 7)
    c2_axis = np.logspace(log10(0.5), log10(50.0), 3)  # as the CLI spaces it,
    c2_axis[0], c2_axis[-1] = 0.5, 50.0                # with the ends as given
    grid = SweepGrid((2, 3), (10.0, 100.0), tuple(c2_axis), rho_points=2)
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--M-values", "2,3", "--P-min", "10",
                     "--P-max", "100", "--P-points", "2", "--c2-min", "0.5",
                     "--c2-max", "50", "--c2-points", "3", "--rho-points", "2",
                     "--out", str(out))
    assert code == 0
    text = out.read_text()
    body = text[text.index(",".join(CSV_COLUMNS)):]
    assert body == rows_to_csv(run_sweep(grid)) and len(run_sweep(grid)) > 7


@pytest.mark.parametrize("p_max, points", [
    ("9.99e279", "3"), ("1e279", "3"), ("7e200", "2"), ("9.99e279", "1")])
def test_log_axis_ends_are_the_given_ends(capsys, tmp_path, p_max, points):
    # the ends themselves, not 10**log10(end); a single point is the lower end
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--M-values", "2", "--rho-values", "0",
                     "--P-max", p_max, "--P-points", points, "--c2-points", "2",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    P = sorted({float(line.split(",")[1]) for line in lines[lines.index(
        ",".join(CSV_COLUMNS)) + 1:]})
    assert P[0] == 3.01 and len(P) == int(points)
    assert P[-1] == (3.01 if points == "1" else float(p_max))


def test_sweep_threads_flag_rejected(capsys):
    # only simulate reads a thread count, so only simulate takes one
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        main(["sweep", "--M-values", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


GRID = ("--P-points", "2", "--c2-points", "2")
HUGE = ("--P-min", "1e307", "--P-max", "1.5e308", "--c2-min", "1e300", "--c2-max", "1e308")


@pytest.mark.parametrize("argv, error", [
    (("sweep", "--M-values", "2", "--P-min", "nan", *GRID), "InvalidPower"),
    (("certify", "--theorem", "Th6", "--M-values", "1", *GRID), "InvalidM"),
    (("sweep", "--M-values", "1", *GRID), "InvalidM"),
    (("audit", "--M-values", "1", *GRID), "InvalidM"),
    (("sweep", "--rho-values", "nan", *GRID), "InfeasibleRho"),
    (("sweep", "--rho-points", "0", *GRID), "CcdpError"),
    (("sweep", "--M-values", "2,2", *GRID), "CcdpError"),
    (("sweep", "--P-min", "0"), "InvalidPower"),
    (("sweep", "--c2-min", "-1"), "InvalidGain"),
    (("sweep", "--c2-min", "0"), "CcdpError"),
    (("fig3", "--P", "inf"), "InvalidPower"),
    (("sweep", "--P-points", "-1"), "CcdpError"),
    (("sweep", "--c2-points", "0"), "CcdpError"),
    (("audit", "--P-points", "0"), "CcdpError"),
    (("fig3", "--points", "0"), "CcdpError"),
    (("fig3", "--points", "-3"), "CcdpError"),
    (("fig3", "--c-min", "-1", "--points", "3"), "InvalidGain"),
    (("fig3", "--c-min", "nan", "--points", "3"), "InvalidGain"),
    (("simulate", "--M", "2", "--c2", "4", "--samples", "0"), "CcdpError"),
    (("simulate", "--M", "2", "--c2", "4", "--target", "nope"), "CcdpError"),
    (("simulate", "--target", "scheme", "--M", "3", "--P", "5e-324", "--c2", "4",
      "--samples", "20000"), "DegenerateCovariance"),
    (("certify", "--theorem", "Th3", "--M-values", "3,4", "--rho-values", "0.5",
      *GRID), "WrongModel"),
    (("certify", "--theorem", "Th3", "--rho-values", "0.5", *GRID), "WrongModel"),
    (("certify", "--theorem", "Th4", "--rho-values", "0.5", *GRID), "WrongModel"),
    (("certify", "--theorem", "Th4", "--rho-values", "5", *GRID), "WrongModel"),
    (("certify", "--theorem", "Th5", "--M-values", "3", *GRID), "WrongModel"),
    (("fig3", "--c-min", "0", "--points", "3"), "DomainError"),
    (("certify", "--theorem", "Th5", "--rho-values", "5", *GRID), "InfeasibleRho"),
    (("certify", "--theorem", "Th6", "--rho-values", "5", *GRID), "InfeasibleRho"),
    (("bounds", "--M", "3", "--P", "1.5e308", "--c2", "1e308"), "InvalidPower"),
    (("bounds", "--M", "1" + "0" * 400, "--P", "10", "--c2", "4"), "InvalidM"),
    (("sweep", *HUGE, *GRID), "InvalidPower"),
    (("audit", *HUGE, *GRID), "InvalidPower"),
    (("sweep", "--c2-max", "1e300", *GRID), "InvalidGain"),
    (("simulate", "--target", "decomposition", "--M", "17", "--rho", "-0.01",
      "--c2", "1", "--samples", "10000"), "InvalidM"),
    (("bounds", "--M", "1099511627776", "--P", "10", "--c2", "1", "--rho", "-1e-12"),
     "InfeasibleRho"),
    (("bounds", "--M", "2", "--c2", "-4"), "InvalidGain"),  # as sweep --c2-min -1
    (("simulate", "--M", "2", "--c2", "-4"), "InvalidGain"),
])
def test_invalid_grid_input_exits_2(capsys, tmp_path, argv, error):
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and err.startswith(f"{error}: ")
    assert not out.exists()


POINT = ("--M", "2", "--P", "10", "--c2", "4")


@pytest.mark.parametrize("command, args", [
    ("bounds", POINT), ("sweep", GRID), ("certify", ("--theorem", "Th3", *GRID)),
    ("fig3", ()), ("simulate", POINT + ("--samples", "1000")), ("audit", GRID),
])
def test_unknown_format_exits_2_from_flag_and_config(capsys, tmp_path, command, args):
    out = tmp_path / "out"
    code, _, flag_err = run(capsys, command, *args, "--format", "xml",
                            "--out", str(out))
    assert code == 2 and flag_err.startswith("CcdpError: format: must be one of")
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"command = {command}\nformat = xml\n")
    code, _, file_err = run(capsys, "--config", str(cfg), *args, "--out", str(out))
    assert code == 2 and file_err == flag_err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("bounds", "--M", "2", "--c2", "4", "--P", "ten"),
                                  ("sweep", "--M-values", "2,x"),
                                  ("simulate", "--c2", "4", "--samples", "1e6")])
def test_malformed_option_text_names_the_option(capsys, tmp_path, argv):
    code, _, flag_err = run(capsys, *argv)
    name, text = argv[-2].lstrip("-"), argv[-1]
    assert code == 2 and flag_err.startswith(f"CcdpError: {name}: ")
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"command = {argv[0]}\n{name} = {text}\n")
    code, _, file_err = run(capsys, "--config", str(cfg), *argv[1:-2])
    assert code == 2 and file_err == flag_err


def test_sweep_summary_prints_plain_floats(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--M-values", "2,3", *GRID,
                       "--out", str(tmp_path / "s.csv"))
    assert code == 0 and "'rho': " in err
    assert "np.float64" not in err


def test_fig3_csv(capsys, tmp_path):
    f = tmp_path / "f.csv"
    code, _, _ = run(capsys, "fig3", "--P", "10", "--points", "50",
                     "--out", str(f))
    assert code == 0
    lines = [l for l in f.read_text().strip().split("\n")
             if not l.startswith("#")]
    assert lines[0] == "c,raw_outer,optimized_outer"
    assert len(lines) == 51


def test_audit_json(capsys, tmp_path):
    f = tmp_path / "a.json"
    code, _, err = run(capsys, "audit", "--M-values", "2", "--P-points", "2",
                       "--c2-points", "20", "--rho-values", "0",
                       "--families", "outer-2-raw", "--format", "json",
                       "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["results"], "raw outer must show violations"
    assert "violations" in err


def test_audit_unknown_family(capsys):
    code, _, err = run(capsys, "audit", "--families", "nope")
    assert code == 2 and "nope" in err


def test_simulate_san(capsys, tmp_path):
    f = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--target", "san", "--M", "2",
                     "--P", "10", "--c2", "4", "--alpha-bar", "0",
                     "--samples", "20000", "--seed", "5", "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())
    r = doc["results"]
    assert abs(r["value"] - r["closed_form"]) < 4 * r["stderr"]
    assert doc["config"]["seed"] == 5


def test_simulate_decomposition(capsys, tmp_path):
    f = tmp_path / "d.json"
    code, _, _ = run(capsys, "simulate", "--target", "decomposition",
                     "--M", "4", "--P", "1", "--c2", "1",
                     "--rho", "-0.333333333333", "--samples", "50000",
                     "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["results"]["kind"] == "negative-pairwise"
    assert doc["results"]["max_abs_covariance_error"] < 0.05


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_simulate_non_finite_lam_exits_2(capsys, lam):
    code, out, err = run(capsys, "simulate", "--target", "gp", "--M", "2",
                         "--P", "10", "--c2", "4", "--alpha-bar", "0.3",
                         "--lam", lam)
    assert code == 2 and err.startswith("DomainError: ") and not out


def _floats(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [v for item in doc for v in _floats(item)]
    return [doc] if isinstance(doc, float) else []


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=st.integers(2, 4), P=st.floats(), c2=st.floats(), rho=st.floats(),
       target=st.sampled_from(["san", "gp", "scheme", "decomposition"]),
       alpha_bar=st.none() | st.floats(0.0, 1.0), lam=st.none() | st.floats(),
       spaced=st.booleans())
@example(M=3, P=10.0, c2=4.0, rho=1.0000000000005, target="scheme", alpha_bar=None,
         lam=None, spaced=False)
@example(M=2, P=10.0, c2=4.0, rho=-1e-3, target="gp", alpha_bar=0.3, lam=-1e-2,
         spaced=True)
@example(M=3, P=5e-324, c2=4.0, rho=0.0, target="scheme", alpha_bar=None, lam=None,
         spaced=False)
@example(M=2, P=6.703903964971296e153, c2=6.703903964971299e153, rho=0.0,
         target="gp", alpha_bar=None, lam=None, spaced=False)
@example(M=2, P=2.3531931915990564e16, c2=0.5, rho=0.0, target="scheme",
         alpha_bar=0.5, lam=None, spaced=False)
@example(M=2, P=1.0, c2=3.1852513365225147e205, rho=0.0, target="gp",
         alpha_bar=None, lam=3.1852513365225147e205, spaced=False)
@example(M=2, P=1.0, c2=0.0, rho=0.0, target="decomposition", alpha_bar=None,
         lam=None, spaced=False)
@example(M=2, P=10.0, c2=0.0, rho=0.0, target="gp", alpha_bar=0.3, lam=1e200,
         spaced=False)
@example(M=2, P=1e20, c2=0.0, rho=0.0, target="gp", alpha_bar=1.0, lam=None,
         spaced=False)
@example(M=2, P=5e-324, c2=4.0, rho=0.0, target="scheme", alpha_bar=0.5, lam=None,
         spaced=False)
def test_simulate_gives_finite_values_or_a_documented_error(capsys, M, P, c2, rho,
                                                            target, alpha_bar, lam,
                                                            spaced):
    # any input, in either option form: exit 2 naming a CcdpError, or finite
    # values, stderrs and z-scores
    values = {"M": M, "P": P, "c2": c2, "rho": rho, "alpha-bar": alpha_bar, "lam": lam}
    code, out, err = run(capsys, "simulate", "--target", target,
                         *(a for k, v in values.items() if v is not None
                           for a in opt(k, repr(v), spaced)),
                         "--samples", "1000")
    if code == 2:
        name = err.split(":", 1)[0]
        assert issubclass(getattr(errors, name), errors.CcdpError) and not out
        return
    assert code == 0
    results = json.loads(out)["results"]
    keys = (("combined_rate", "combined_stderr", "z_score") if target == "scheme"
            else ("value", "stderr", "z_score"))
    assert all(isfinite(results[k]) for k in keys)
    assert all(map(isfinite, _floats(results)))


def test_simulate_default_alpha_bar_is_optimal(capsys, tmp_path):
    f = tmp_path / "s.json"
    code, _, _ = run(capsys, "simulate", "--target", "scheme", "--M", "2",
                     "--P", "10", "--c2", "5", "--samples", "20000",
                     "--out", str(f))
    assert code == 0
    doc = json.loads(f.read_text())
    assert doc["results"]["alpha_bar"] == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# Config files.
# ---------------------------------------------------------------------------

def test_config_round_trip_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
    code, _, _ = run(capsys, "sweep", "--M-values", "2", "--P-points", "3",
                     "--c2-points", "3", "--rho-values", "0",
                     "--out", str(out1), "--dump-config", str(cfg))
    assert code == 0
    assert "command = sweep" in cfg.read_text()
    code, _, _ = run(capsys, "--config", str(cfg), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = bounds\nM = 2\nP = 10.0\nc2 = 4.0\n"
                   "# comment line\nrho = 0.0\n")
    code, out, _ = run(capsys, "bounds", "--config", str(cfg), "--c2", "0.5")
    assert code == 0
    # flag wins: c2=0.5 puts the outer bound on its trivial branch
    assert "outer(appendix) 1.729716" in out
    code, out, _ = run(capsys, "--config", str(cfg))
    assert "outer(appendix) 1.953445" in out


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = bounds\nM = 2\nP = 10\nc2 = 4\nbogus = 1\n")
    code, _, err = run(capsys, "--config", str(cfg))
    assert code == 2 and "bogus" in err


def test_config_command_mismatch_rejected(capsys, tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("command = sweep\n")
    code, _, err = run(capsys, "bounds", "--config", str(cfg), "--c2", "4")
    assert code == 2 and "does not match" in err


SIMULATE = ("simulate", "--target", "san", "--samples", "1000",
            "--M", "2", "--c2", "4")


def test_threads_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CCDP_THREADS", "3")
    cfg = tmp_path / "t.cfg"
    code, _, _ = run(capsys, *SIMULATE, "--dump-config", str(cfg))
    assert code == 0
    assert "threads = 3" in cfg.read_text()
    # explicit flag still wins
    code, _, _ = run(capsys, *SIMULATE, "--threads", "2", "--dump-config", str(cfg))
    assert "threads = 2" in cfg.read_text()


def test_threads_env_not_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CCDP_THREADS", "abc")
    code, _, err = run(capsys, *SIMULATE)
    assert code == 2 and err.startswith("CcdpError: ") and "CCDP_THREADS" in err
    # commands without a thread count do not read the variable
    cfg = tmp_path / "s.cfg"
    code, _, _ = run(capsys, "sweep", "--M-values", "2", *GRID,
                     "--out", str(tmp_path / "s.csv"), "--dump-config", str(cfg))
    assert code == 0 and "\nthreads = " not in cfg.read_text()


def test_config_with_threads_for_sweep_rejected(capsys, tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("command = sweep\nM-values = 2\nthreads = 1\n")
    code, _, err = run(capsys, "--config", str(cfg))
    assert code == 2 and "threads" in err


def test_list_flag_and_config_value_parse_alike(capsys, tmp_path):
    flag_cfg, file_cfg = tmp_path / "flag.cfg", tmp_path / "file.cfg"
    args = ("--rho-values", "0", *GRID, "--out", str(tmp_path / "x.csv"))
    code, _, _ = run(capsys, "sweep", "--M-values", "2,,3", *args,
                     "--dump-config", str(flag_cfg))
    assert code == 0
    (tmp_path / "in.cfg").write_text("command = sweep\nM-values = 2,,3\n")
    code, _, _ = run(capsys, "--config", str(tmp_path / "in.cfg"), *args,
                     "--dump-config", str(file_cfg))
    assert code == 0
    assert "M-values = 2,3" in flag_cfg.read_text()
    assert flag_cfg.read_text() == file_cfg.read_text()


def test_internal_error_exits_3(capsys, monkeypatch):
    from ccdp import cli

    def broken(resolved):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "bounds", broken)
    code, _, err = run(capsys, "bounds", "--M", "2", "--P", "10", "--c2", "4")
    assert code == 3 and err == "RuntimeError: boom\n"


def test_usage_without_command(capsys):
    code, _, err = run(capsys)
    assert code == 2 and "usage" in err


def test_bare_config_flag_exits_2(capsys):
    code, _, err = run(capsys, "--config")
    assert code == 2 and "CcdpError" in err and "--config" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_rejected(capsys, threads):
    code, _, err = run(capsys, *SIMULATE, "--threads", threads)
    assert code == 2 and "threads" in err


def test_thread_count_env_zero_rejected(capsys, monkeypatch):
    monkeypatch.setenv("CCDP_THREADS", "0")
    code, _, err = run(capsys, *SIMULATE)
    assert code == 2 and "threads" in err

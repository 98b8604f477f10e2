import contextlib
import io
import json
import math
import tracemalloc
import warnings

import pytest

from dle3q import cli
from dle3q.cli import MAX_SWEEP_STEPS, main
from dle3q.params import JSON_KEYS

PAPER_FLAGS = ["--omega1-ghz", "5", "--omega2-ghz", "3.75",
               "--e0-ghz", "3.721", "--lambda-ghz", "0.2"]

#: omega2 inside the closed forms' relative guard band around E0.
GUARD_BAND = ["--omega1-ghz", "5", "--omega2-ghz", "3.721000000001", "--e0-ghz", "3.721",
              "--lambda-ghz", "0.02"]


#: report's one stderr line where an amplitude overflows: a product of coupling ratios
#: lambda/(omega +- E0) leaves the double range.
AMPLITUDES_NOT_FINITE = ("error: amplitudes is not finite at these parameters "
                         "(outside double-precision range)\n")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["report", "sweep", "validate"])
def test_help_lists_parameter_flags_in_key_order(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    flags = ["--omega1-ghz", "--omega2-ghz", "--e0-ghz", "--lambda-ghz", "--nmax"]
    assert flags == ["--" + key.replace("_", "-") for key in JSON_KEYS]
    options = capsys.readouterr().out.split("options:", 1)[1]
    listed = [line.split()[0] for line in options.splitlines() if line.startswith("  --")]
    assert [flag for flag in listed if flag in flags] == flags


class TestReport:
    def test_json_contains_quoted_values(self, capsys):
        code, out, _ = run(capsys, ["report", *PAPER_FLAGS])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["w_1"] == pytest.approx(1.47e-5, rel=0.01)
        assert doc["summary"]["tau_2"] == pytest.approx(5.62e-8, rel=0.01)
        assert doc["inputs"]["omega2_ghz"] == 3.75
        assert doc["probabilities"]["w_3"] == 0.0
        assert doc["validity"]["perturbative_ok"] is False

    def test_json_entanglement_rows(self, capsys):
        code, out, _ = run(capsys, ["report", *PAPER_FLAGS])
        doc = json.loads(out)
        rows = {r["n"]: r for r in doc["entanglement"]}
        assert rows[0]["tau_abc"] == 0.0
        assert rows[2]["c_ab1_formula_path"] == pytest.approx(
            2 * rows[2]["c_ab1"], rel=1e-9)
        assert rows[2]["formula_path_mismatch"] is True
        assert "normalized_variant" in rows[1]

    def test_subnormal_c2_ab1_still_flagged(self, capsys):
        # C|2>_AB1 is subnormal here, and still exactly half the formula-path value
        code, out, _ = run(capsys, [
            "report", "--omega1-ghz", "6.750983125481578e-25",
            "--omega2-ghz", "2.540852473056731e-25", "--e0-ghz", "4.142268100881657e-25",
            "--lambda-ghz", "1.9841513792509973e-104"])
        assert code == 0
        row = json.loads(out)["entanglement"][2]
        assert 0.0 < row["c_ab1"] < 1e-312
        assert row["c_ab1_formula_path"] == 2 * row["c_ab1"]
        assert row["formula_path_mismatch"] is True

    def test_csv_long_format(self, capsys):
        code, out, _ = run(capsys, ["report", *PAPER_FLAGS, "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,measure,value"
        measures = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert ("", "w_1") in measures
        assert ("2", "tau_abc") in measures
        assert len(measures) == len(lines) - 1  # one row per (n, measure)

    def test_missing_flag_exits_2_naming_it(self, capsys):
        for flag in ("--omega2-ghz", "--e0-ghz"):
            at = PAPER_FLAGS.index(flag)
            code, out, err = run(capsys, ["report", *PAPER_FLAGS[:at], *PAPER_FLAGS[at + 2:]])
            assert (code, out) == (2, "")
            assert err == f"error: missing required parameter flag(s): {flag}\n"

    def test_bad_domain_exits_2_naming_field(self, capsys):
        code, _, err = run(capsys, ["report", "--omega1-ghz", "5", "--omega2-ghz", "-1",
                                    "--e0-ghz", "3.721", "--lambda-ghz", "0.2"])
        assert code == 2
        assert "omega2" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, ["report", *PAPER_FLAGS])
        _, out2, _ = run(capsys, ["report", *PAPER_FLAGS])
        assert out1 == out2

    def test_config_file_round_trip(self, capsys, tmp_path):
        config = tmp_path / "params.json"
        payload = {"omega1_ghz": 5.0, "omega2_ghz": 3.75, "e0_ghz": 3.721,
                   "lambda_ghz": 0.2, "nmax": 18}
        config.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["report", "--config", str(config)])
        assert code == 0
        assert json.loads(out)["inputs"] == payload

    @pytest.mark.parametrize("nmax", [20.7, "20", True])
    def test_config_non_integer_nmax_exits_2(self, capsys, tmp_path, nmax):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"omega1_ghz": 5.0, "omega2_ghz": 3.75,
                                      "e0_ghz": 3.721, "lambda_ghz": 0.2, "nmax": nmax}))
        code, out, err = run(capsys, ["report", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert "nmax must be an integer" in err

    @pytest.mark.parametrize("content", [b"[1, 2]", b'"x"', b"3", b'[["omega1_ghz", 5]]',
                                         b"\xff\xfe{}"])
    def test_config_not_an_object_exits_2(self, capsys, tmp_path, content):
        config = tmp_path / "params.json"
        config.write_bytes(content)
        code, out, err = run(capsys, ["report", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --config {config}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name,reason", [("absent.json", "No such file or directory"),
                                             (".", "Is a directory")])
    def test_config_unreadable_exits_2_naming_flag(self, capsys, tmp_path, name, reason):
        config = tmp_path / name
        code, out, err = run(capsys, ["report", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --config {config}: [Errno ")
        assert reason in err
        assert err.count("\n") == 1

    def test_config_unknown_key_exits_2_naming_it(self, capsys, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"omega1_ghz": 5.0, "omega2_ghz": 3.75, "e0_ghz": 3.721,
                                      "lambda_ghz": 0.2, "coupling_ghz": 0.2}))
        code, out, err = run(capsys, ["report", "--config", str(config)])
        assert (code, out) == (2, "")
        assert err == "error: unknown parameter keys: ['coupling_ghz']\n"

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"omega1_ghz": 5.0, "omega2_ghz": 4.0,
                                      "e0_ghz": 3.721, "lambda_ghz": 0.2}))
        code, out, _ = run(capsys, ["report", "--config", str(config),
                                    "--omega2-ghz", "3.75"])
        assert code == 0
        assert json.loads(out)["inputs"]["omega2_ghz"] == 3.75


SWEEP_BASE = ["sweep", "--omega1-ghz", "5", "--e0-ghz", "3.721", "--lambda-ghz", "0.2"]


@pytest.mark.parametrize("command,extra", [
    ("report", []),
    ("sweep", ["--omega2-min-ghz", "3.5", "--omega2-max-ghz", "4.5", "--steps", "3"]),
    ("validate", [])])
def test_integer_config_prints_like_flags(capsys, tmp_path, command, extra):
    # a frequency written as a JSON integer is the float it names
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omega1_ghz": 5, "omega2_ghz": 4, "e0_ghz": 3,
                                  "lambda_ghz": 0.02}))
    flags = ["--omega1-ghz", "5", "--omega2-ghz", "4", "--e0-ghz", "3", "--lambda-ghz", "0.02"]
    for fmt in ("json", "csv"):
        from_config = run(capsys, [command, "--config", str(config), *extra, "--format", fmt])
        from_flags = run(capsys, [command, *flags, *extra, "--format", fmt])
        assert from_config == from_flags
        assert from_config[0] == 0


class TestSweep:
    def test_two_steps_hit_endpoints(self, capsys):
        code, out, _ = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                                    "--omega2-max-ghz", "4.5", "--steps", "2"])
        assert code == 0
        doc = json.loads(out)
        assert [r["omega2"] for r in doc["rows"]] == [3.73, 4.5]
        assert doc["skipped"] == 0

    def test_monotone_above_resonance(self, capsys):
        code, out, _ = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                                    "--omega2-max-ghz", "4.5", "--steps", "10"])
        doc = json.loads(out)
        taus = [r["tau_2"] for r in doc["rows"]]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert doc["tau_2_monotone_above_e0"] is True

    def test_grid_point_on_resonance_skipped(self, capsys):
        code, out, err = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.711",
                                      "--omega2-max-ghz", "3.731", "--steps", "3",
                                      "--format", "csv"])
        assert code == 0
        assert "skipped: 1" in err
        assert len(out.strip().split("\n")) == 3  # header + two surviving rows

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "4.0",
                                    "--omega2-max-ghz", "4.5", "--steps", "3",
                                    "--format", "csv"])
        header = out.split("\n", 1)[0]
        assert header == ("omega2,w_0,w_1,w_2,tau_2,"
                          "c_0_ab1,c_1_ab0,c_2_ab0,c_2_ab1,perturbative_ok")

    def test_missing_flag_names_only_what_sweep_needs(self, capsys):
        code, _, err = run(capsys, ["sweep", "--e0-ghz", "3.721", "--lambda-ghz", "0.2",
                                    "--omega2-min-ghz", "3.73", "--omega2-max-ghz", "4.5"])
        assert code == 2
        assert err == "error: missing required parameter flag(s): --omega1-ghz\n"

    @pytest.mark.parametrize("argv,missing", [
        ([*SWEEP_BASE, "--omega2-min-ghz", "3"], "--omega2-max-ghz"),
        ([*SWEEP_BASE, "--omega2-max-ghz", "4.5"], "--omega2-min-ghz"),
        (SWEEP_BASE, "--omega2-min-ghz --omega2-max-ghz"),
        (["sweep", "--e0-ghz", "3.721", "--lambda-ghz", "0.2", "--omega2-min-ghz", "3"],
         "--omega1-ghz --omega2-max-ghz")])
    def test_missing_grid_bound_named(self, capsys, argv, missing):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: missing required parameter flag(s): {missing}\n"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "4.5",
                                    "--omega2-max-ghz", "3.73"])
        assert code == 2
        assert "omega2_min" in err

    def test_too_few_steps_exits_2(self, capsys):
        code, _, err = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                                    "--omega2-max-ghz", "4.5", "--steps", "1"])
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("steps", ["9223372036854775807", "4611686018427387904",
                                       "1000000000000"])
    def test_too_many_steps_exits_2(self, capsys, steps, fmt):
        # refused before the grid is built: numpy would return an empty grid
        # for the first value and fail to allocate the other two
        code, out, err = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                                      "--omega2-max-ghz", "4.5", "--steps", steps,
                                      "--format", fmt])
        assert code == 2
        assert out == ""
        assert err == f"error: steps must be <= {MAX_SWEEP_STEPS}, got {steps}\n"

    def test_step_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 5)
        grid = [*SWEEP_BASE, "--omega2-min-ghz", "3.73", "--omega2-max-ghz", "4.5"]
        code, out, _ = run(capsys, [*grid, "--steps", "5"])
        assert code == 0
        assert len(json.loads(out)["rows"]) == 5
        code, out, err = run(capsys, [*grid, "--steps", "6"])
        assert code == 2
        assert out == ""
        assert err == "error: steps must be <= 5, got 6\n"

    @pytest.mark.parametrize("fmt,budget", [("json", 3.25), ("csv", 4.5)])
    def test_peak_memory_within_copy_budget(self, fmt, budget):
        # the table text is copied a fixed number of times on its way to stdout
        argv = [*SWEEP_BASE, "--omega2-min-ghz", "3.0", "--omega2-max-ghz", "4.5",
                "--steps", "20000", "--format", fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= budget * len(out.getvalue())

    def test_deterministic_output(self, capsys):
        argv = [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                "--omega2-max-ghz", "4.5", "--steps", "7", "--format", "csv"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


VALIDATE_BASE = ["validate", "--omega1-ghz", "5", "--omega2-ghz", "4.5",
                 "--e0-ghz", "3.721", "--lambda-ghz", "0.02"]


class TestValidate:
    def test_small_coupling_passes(self, capsys):
        code, out, _ = run(capsys, [*VALIDATE_BASE, "--format", "csv"])
        assert code == 0
        header = out.split("\n", 1)[0]
        assert header == ("channel_n,channel_m,closed_form,oracle,"
                          "rel_dev,nmax,lambda_scale,include_rwa")
        # rows for both Hamiltonian variants, four channels, three scales
        assert len(out.strip().split("\n")) == 1 + 2 * 4 * 3

    def test_json_gate_flag(self, capsys):
        code, out, _ = run(capsys, VALIDATE_BASE)
        doc = json.loads(out)
        assert code == 0
        assert doc["gate_passed"] is True
        assert doc["gated_channels"] == [[1, 1]]

    def test_ascending_scales_exit_2(self, capsys):
        code, out, err = run(capsys, [*VALIDATE_BASE, "--lambda-scales", "0.25,0.5,1"])
        assert (code, out) == (2, "")
        assert err == "error: lambda scales must strictly descend, e.g. 1, 0.5, 0.25\n"

    def test_tiny_nmax_headroom_exit_2(self, capsys):
        code, _, err = run(capsys, [*VALIDATE_BASE, "--nmax", "2"])
        assert code == 2
        assert "headroom" in err

    def test_non_shrinking_scales_fail_gate(self, capsys):
        # nearly equal couplings cannot show a 3x shrink; exit 1 names channel
        code, _, err = run(capsys, [*VALIDATE_BASE, "--lambda-scales", "1,0.99"])
        assert code == 1
        assert "(1, 1)" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, [*VALIDATE_BASE, "--format", "csv"])
        _, out2, _ = run(capsys, [*VALIDATE_BASE, "--format", "csv"])
        assert out1 == out2

    @pytest.mark.parametrize("rwa", ["on", "off"])
    def test_huge_nmax_gives_the_certified_rows(self, capsys, rwa):
        # every V_RWA label certifies at 20 photons, every H0+V label is
        # solved on its own block, and no vector is sized by nmax
        code, out, err = run(capsys, [*VALIDATE_BASE, "--rwa", rwa,
                                      "--nmax", "10000000000"])
        assert (code, err) == (0, "")
        huge = json.loads(out)
        small = json.loads(run(capsys, [*VALIDATE_BASE, "--rwa", rwa, "--nmax", "20"])[1])
        assert huge["inputs"]["nmax"] == 10 ** 10
        assert all(row.pop("nmax") == 10 ** 10 for row in huge["rows"])
        assert all(row.pop("nmax") == 20 for row in small["rows"])
        assert huge["rows"] == small["rows"]

    def test_inside_guard_band_exits_2(self, capsys):
        code, out, err = run(capsys, ["validate", *GUARD_BAND])
        assert (code, out) == (2, "")
        assert err == ("error: omega = 3.721000000001 within 1e-12*E0 of the qubit "
                       "frequency E0 = 3.721; closed form is singular there\n")

    def test_ground_headroom_reported_before_guard_band(self, capsys):
        code, out, err = run(capsys, ["validate", *GUARD_BAND, "--nmax", "3"])
        assert (code, out) == (2, "")
        assert err == ("error: label |n=0, m=0> needs photon headroom: "
                       "n <= nmax - 4 = -1\n")

    def test_malformed_scales_exit_2(self, capsys):
        code, _, err = run(capsys, [*VALIDATE_BASE, "--lambda-scales", "1,abc"])
        assert code == 2
        assert "lambda-scales" in err

    @pytest.mark.parametrize("scales,message", [
        ("1,-1", "lambda scales must keep lambda * scale finite and > 0, got [-1.0]"),
        ("1,0", "lambda scales must keep lambda * scale finite and > 0, got [0.0]"),
        ("1", "need at least two lambda scales"),
        ("1,1", "lambda scales must strictly descend, e.g. 1, 0.5, 0.25"),
    ], ids=["1,-1", "1,0", "1", "1,1"])
    def test_unusable_scales_exit_2(self, capsys, scales, message):
        # exit 1 is reserved for a failed gate, which these scales cannot reach
        code, out, err = run(capsys, [*VALIDATE_BASE, "--lambda-scales", scales])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("scales,bad", [("1,nan", "nan"), ("inf,1", "inf"),
                                            ("1,1e-320", "1e-320")])
    def test_non_finite_scales_named(self, capsys, scales, bad):
        # at lambda 1e-5 GHz the scale 1e-320 underflows lambda * scale to 0
        code, out, err = run(capsys, [*VALIDATE_BASE, "--lambda-ghz", "1e-5",
                                      "--lambda-scales", scales])
        assert code == 2
        assert out == ""
        assert err == ("error: lambda scales must keep lambda * scale finite and > 0, "
                       f"got [{bad}]\n")

    def test_vanishing_closed_form_fails_gate(self, capsys):
        # omega2 = omega1 makes the gated channel's closed form zero; the
        # deviation is undefined there and the gate must refuse to pass
        code, out, err = run(capsys, ["validate", "--omega1-ghz", "5",
                                      "--omega2-ghz", "5", "--e0-ghz", "3.721",
                                      "--lambda-ghz", "0.02"])
        assert code == 1
        doc = json.loads(out)
        assert doc["gate_passed"] is False
        gated = [r for r in doc["rows"]
                 if (r["channel_n"], r["channel_m"]) == (1, 1)]
        assert all(r["rel_dev"] is None for r in gated)


POINT = ["--omega1-ghz", "5", "--e0-ghz", "3.721"]


class TestFiniteInputs:
    """Finite, accepted inputs give finite output (exit 0) or exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,code", [
        (["report", *POINT, "--omega2-ghz", "1e200", "--lambda-ghz", "0.2"], 0),
        (["report", *POINT, "--omega2-ghz", "3.75", "--lambda-ghz", "1e100"], 2),
        (["report", *POINT, "--omega2-ghz", "3.75", "--lambda-ghz", "1e-155"], 0),
        (["sweep", *POINT, "--lambda-ghz", "0.2", "--omega2-min-ghz", "1",
          "--omega2-max-ghz", "1e308"], 2),
        (["sweep", *POINT, "--lambda-ghz", "0.2", "--omega2-min-ghz", "1",
          "--omega2-max-ghz", "inf"], 2),
        (["sweep", *POINT, "--lambda-ghz", "0.2", "--omega2-min-ghz", "nan",
          "--omega2-max-ghz", "4"], 2),
        (["validate", *POINT, "--omega2-ghz", "4.5", "--lambda-ghz", "1e300"], 2),
        (["validate", "--omega1-ghz", "1e300", "--omega2-ghz", "4.5", "--e0-ghz", "3.721",
          "--lambda-ghz", "0.02"], 2),
        # the coupling ratios are near 1e199, so their products overflow to inf
        *[([*argv, "--omega1-ghz", "1e-200", "--e0-ghz", "1.5e-200", "--lambda-ghz", "0.2",
            "--format", fmt], 2)
          for argv in (["report", "--omega2-ghz", "2e-200"],
                       ["sweep", "--omega2-min-ghz", "1e-200", "--omega2-max-ghz", "2e-200"])
          for fmt in ("json", "csv")],
    ])
    def test_no_traceback(self, capsys, argv, code):
        # a cold process would print each warning on stderr; here they are recorded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run(capsys, argv)
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in err
        assert got == code
        if code == 0:
            floats = []
            json.loads(out, parse_float=lambda text: floats.append(float(text)))
            assert floats and all(math.isfinite(x) for x in floats)
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            if argv[:3] == ["report", "--omega2-ghz", "2e-200"]:
                assert err == AMPLITUDES_NOT_FINITE

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_validate_non_finite_closed_form_exits_2(self, capsys, fmt):
        # report's refusal point: the coupling ratios are near 1e199, so g1 h2 overflows
        # and A(2;0) is refused at the first scale, before any solve
        argv = ["validate", "--omega1-ghz", "1e-200", "--omega2-ghz", "2e-200",
                "--e0-ghz", "1.5e-200", "--lambda-ghz", "0.2", "--format", fmt]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err == ("error: closed_form of channel (2, 0) (include_rwa=False) at lambda "
                       "scale 1.0 is not finite at these parameters "
                       "(outside double-precision range)\n")

    def test_non_finite_sweep_bound_named(self, capsys):
        code, _, err = run(capsys, [*SWEEP_BASE, "--omega2-min-ghz", "3.73",
                                    "--omega2-max-ghz", "inf"])
        assert code == 2
        assert "must be finite" in err

    def test_tiny_coupling_keeps_normalized_sectors(self, capsys):
        # lam^2 is subnormal here; the normalized variant does not depend on lam
        _, tiny, _ = run(capsys, ["report", *POINT, "--omega2-ghz", "3.75",
                                  "--lambda-ghz", "1e-155"])
        _, paper, _ = run(capsys, ["report", *PAPER_FLAGS])
        rows = [json.loads(text)["entanglement"] for text in (tiny, paper)]
        assert rows[0][1]["normalized_variant"] == rows[1][1]["normalized_variant"]
        assert rows[0][2]["normalized_variant"] == rows[1][2]["normalized_variant"]

    def test_report_inside_guard_band_exits_2(self, capsys):
        omega2 = repr(3.721 * (1 + 1e-14))
        code, out, err = run(capsys, ["report", *POINT, "--omega2-ghz", omega2,
                                      "--lambda-ghz", "0.2"])
        assert code == 2
        assert out == ""
        assert "closed form is singular" in err

    def test_sweep_ignores_fixed_omega2(self, capsys):
        grid = ["--omega2-min-ghz", "3.73", "--omega2-max-ghz", "4.5", "--steps", "3"]
        code, out, _ = run(capsys, [*SWEEP_BASE, "--omega2-ghz", "3.721", *grid])
        assert code == 0
        assert out == run(capsys, [*SWEEP_BASE, *grid])[1]


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_output_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdout", _BrokenPipe())
    code = main(["report", *PAPER_FLAGS])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

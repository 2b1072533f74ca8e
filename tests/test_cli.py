import csv
import json
import time

import numpy as np
import pytest

from specshift import cayley, cli, shift
from specshift.cli import (
    CampaignConfig,
    emit_shift_samples,
    main,
    run_campaign,
    run_diagnose,
)
from specshift.report import (
    CSV_COLUMNS, VerificationReport, write_csv, write_json, write_reports_json,
)


class TestConfig:
    def test_zero_trials_rejected(self):
        cfg = CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_unknown_kind_rejected(self):
        cfg = CampaignConfig(kind="bogus")
        with pytest.raises(ValueError):
            cfg.validate()

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "mult", "trials": 3, "seed": 9}))
        import argparse

        args = argparse.Namespace(command="verify", config=str(cfg_file), kind=None, seed=11,
                                  trials=None, out=None, workers=None, dims=None,
                                  degrees=None, zero_direction=False)
        cfg = CampaignConfig.from_sources(args)
        assert cfg.kind == "mult" and cfg.trials == 3 and cfg.seed == 11

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        import argparse

        args = argparse.Namespace(command="verify", config=str(cfg_file))
        with pytest.raises(ValueError):
            CampaignConfig.from_sources(args)

    @pytest.mark.parametrize(
        "command,data",
        [
            ("eta", {"trials": 3}),
            ("diagnose", {"kind": "mult"}),
            ("report", {"kind": "mult"}),
            ("verify", {"grid": 512}),
        ],
    )
    def test_a_key_the_command_ignores_exits_two_with_one_line(
        self, tmp_path, capsys, command, data
    ):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(data))
        code = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestTypedConfig:
    @pytest.mark.parametrize(
        "data",
        [
            {"trials": "5"},
            {"dims": 4},
            {"dims": [2, "3"]},
            {"grid": 4096.5},  # verify reads no grid; eta's checks are tested below
            {"zero_direction": "yes"},
            {"seed": -1},
            {"kind": ["linear"]},
            # verdict tolerances are module constants, not config keys
            {"tolerances": {"trace_formula": 1e-8}},
            {"workers": 0},
            {"grid": 128},
            [1, 2],
            {"validate": 1},
            {"from_sources": 3},
            {"degrees": []},
        ],
    )
    def test_bad_values_exit_two_with_one_line(self, tmp_path, capsys, data):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(data))
        code = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", [4096.5, 128, "512"])
    def test_bad_eta_grid_exits_two_with_one_line(self, tmp_path, capsys, grid):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid": grid}))
        code = main(["eta", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid configuration: grid") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--kind", "bogus"],
            ["verify", "--trials", "x"],
            ["verify", "--bogus"],
            ["eta", "--out"],
            ["bogus"],
            [],
            ["verify", "--dims", ""],
            ["verify", "--degrees", ""],
            ["eta", "--dims", "2,x"],
        ],
    )
    def test_bad_flags_exit_two_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("invalid configuration:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command, flags in {
                "verify": ("--grid 512",),
                "eta": ("--trials 3", "--workers 2"),
                "diagnose": ("--kind linear", "--trials 3", "--grid 512", "--workers 2"),
                "report": ("--seed 1", "--kind linear", "--trials 3", "--dims 2", "--degrees 3",
                           "--grid 512", "--workers 2", "--zero-direction"),
            }.items()
            for flag in flags
        ],
    )
    def test_a_flag_the_command_ignores_exits_two_with_one_line(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag.split()])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("invalid configuration: unrecognized arguments:")
        assert err.count("\n") == 1

    def test_help_prints_the_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: specshift verify")


class TestTransformTolerances:
    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    @pytest.mark.parametrize("key", ["circle", "realline"])
    def test_tight_tolerance_fails(self, tmp_path, monkeypatch, kind, key):
        # the campaign verdicts read the cayley module constants
        constant = {"circle": "CIRCLE_TOL", "realline": "REAL_LINE_TOL"}[key]
        monkeypatch.setattr(cayley, constant, 1e-30)
        code = main(["verify", "--kind", kind, "--trials", "3", "--out", str(tmp_path / "o")])
        assert code == 1
        entries = json.loads((tmp_path / "o" / "reports.json").read_text())
        assert all(entry["verdict"] == "fail" for entry in entries)


class TestExitCodes:
    def test_invalid_config_exits_two(self, tmp_path):
        code = main(["verify", "--kind", "linear", "--trials", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_passing_campaign_exits_zero(self, tmp_path):
        code = main(["verify", "--kind", "linear", "--trials", "3",
                     "--seed", "4", "--out", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_degree_beyond_an_eighth_of_the_grid_exits_zero(self, kind, tmp_path):
        code = main(["verify", "--kind", kind, "--degrees", "33", "--trials", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_failing_campaign_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shift, "TRACE_TOL_LINEAR", 1e-30)
        code = main(["verify", "--kind", "linear", "--trials", "3", "--seed", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_report_missing_directory(self, tmp_path):
        code = main(["report", "--out", str(tmp_path / "nothing")])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '[{"kind": "linear", "residual": 0.0}]',  # an entry without a verdict
        ],
    )
    def test_report_malformed_reports_json(self, tmp_path, capsys, text):
        (tmp_path / "reports.json").write_text(text)
        code = main(["report", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("malformed ")
        assert not (tmp_path / "summary.json").exists()


class TestCampaigns:
    def test_zero_direction_fixture_all_residuals_zero(self, tmp_path):
        cfg = CampaignConfig(kind="linear", trials=5, seed=3,
                             out=str(tmp_path / "o"), zero_direction=True)
        status, reports = run_campaign(cfg)
        assert status == 0
        assert all(r.residual <= 1e-14 for r in reports)

    def test_same_seed_byte_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            cfg = CampaignConfig(kind="mult", trials=4, seed=77, out=str(tmp_path / sub))
            run_campaign(cfg)
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b

    def test_csv_schema(self, tmp_path):
        cfg = CampaignConfig(kind="dilation", trials=3, seed=5, out=str(tmp_path / "o"))
        run_campaign(cfg)
        with open(tmp_path / "o" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 4
        assert all(row[-1] in ("pass", "fail") for row in rows[1:])

    def test_reports_json_written(self, tmp_path):
        cfg = CampaignConfig(kind="truncate", trials=2, seed=6, out=str(tmp_path / "o"))
        run_campaign(cfg)
        entries = json.loads((tmp_path / "o" / "reports.json").read_text())
        assert len(entries) == 2
        assert {"kind", "lhs", "rhs", "residual", "verdict", "runtime"} <= set(entries[0])

    @pytest.mark.parametrize("kind", ["dilation", "truncate"])
    def test_zero_direction_zero_lhs_and_residual(self, kind, tmp_path):
        # the perturbed operator equals the base, so both columns vanish exactly
        out = tmp_path / "o"
        argv = ["verify", "--kind", kind, "--trials", "5", "--seed", "1", "--zero-direction"]
        assert main(argv + ["--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            assert float(row["lhs_re"]) == float(row["lhs_im"]) == float(row["residual"]) == 0.0

    @pytest.mark.parametrize(
        "kind", ["linear", "mult", "cayley_sa", "cayley_diss", "dilation", "truncate"]
    )
    def test_workers_write_the_same_csv(self, kind, tmp_path):
        # the thread pool keeps trial order: two workers, the same bytes as one
        csvs = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            cfg = CampaignConfig(kind=kind, trials=6, seed=3, workers=workers, out=str(out))
            run_campaign(cfg)
            csvs.append((out / "summary.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_campaigns(self, kind, tmp_path):
        cfg = CampaignConfig(kind=kind, trials=2, seed=8, dims=[2, 3], out=str(tmp_path / "o"))
        status, reports = run_campaign(cfg)
        assert status == 0 and all(r.passed for r in reports)

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_reports_carry_exactly_the_realline_extras(self, kind, tmp_path):
        # perfbench/tracing.py reads residual_circle_vs_realline and realline_tol
        cfg = CampaignConfig(kind=kind, trials=2, seed=8, dims=[2, 3], out=str(tmp_path / "o"))
        run_campaign(cfg)
        entries = json.loads((tmp_path / "o" / "reports.json").read_text())
        assert [set(e["extras"]) for e in entries] == [
            {"rhs_realline", "residual_circle_vs_realline", "realline_tol"}
        ] * 2


class TestEmission:
    def test_row_count_contract(self, tmp_path):
        cfg = CampaignConfig(kind="linear", seed=1, grid=512, out=str(tmp_path / "o"))
        path = emit_shift_samples(cfg)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,re_eta,im_eta"
        assert len(lines) == 513  # header + grid rows

    def test_endpoints_present_and_zero(self, tmp_path):
        cfg = CampaignConfig(kind="linear", seed=2, grid=512, out=str(tmp_path / "o"))
        path = emit_shift_samples(cfg)
        rows = path.read_text().strip().split("\n")[1:]
        first = [float(x) for x in rows[0].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == pytest.approx(2 * np.pi)
        assert abs(complex(first[1], first[2])) < 1e-8
        assert abs(complex(last[1], last[2])) < 1e-8

    def test_zero_direction_all_zero_columns(self, tmp_path):
        cfg = CampaignConfig(kind="mult", seed=3, grid=512,
                             out=str(tmp_path / "o"), zero_direction=True)
        path = emit_shift_samples(cfg)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.abs(data[:, 1:]).max() == 0.0

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_zero_direction_all_zero_samples(self, kind, tmp_path):
        cfg = CampaignConfig(kind=kind, seed=1, grid=512, dims=[3],
                             out=str(tmp_path / "o"), zero_direction=True)
        data = np.loadtxt(emit_shift_samples(cfg), delimiter=",", skiprows=1)
        assert np.abs(data[:, 1:]).max() == 0.0

    @pytest.mark.parametrize("kind", ["dilation", "truncate"])
    def test_kinds_without_samples_exit_two_with_one_line(self, kind, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["eta", "--kind", kind, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["linear", "mult"])
    def test_corrupted_step_exits_one_without_samples(self, kind, tmp_path, monkeypatch, capsys):
        # the step function is checked against the moment route before writing
        real = cli.shift_step_representation

        def corrupted(path, max_power):
            step = real(path, max_power=max_power)
            heights = step.heights.copy()
            heights[len(heights) // 2] += 0.1
            return shift.StepFunction(step.angles, heights)

        monkeypatch.setattr(cli, "shift_step_representation", corrupted)
        out = tmp_path / "o"
        assert main(["eta", "--kind", kind, "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed:") and err.count("\n") == 1
        assert not (out / "shift_samples.csv").exists()

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_step_mismatch_exits_one_without_samples(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        # the transform kinds check the line's step function against the
        # linear moment route of their circle path before writing
        monkeypatch.setattr(cli, "TRACE_TOL_LINEAR", 1e-30)
        out = tmp_path / "o"
        code = main(["eta", "--kind", kind, "--seed", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed:") and err.count("\n") == 1
        assert not (out / "shift_samples.csv").exists()

    @pytest.mark.parametrize("kind", ["linear", "mult", "cayley_sa", "cayley_diss"])
    def test_samples_follow_the_first_trials_path(self, kind, tmp_path, monkeypatch):
        # eta at seed s samples the circle path of trial 0 of the campaign at s
        seen = {}
        check = cli._check_step
        verifier = {
            "linear": "verify_trace_formula_linear",
            "mult": "verify_trace_formula_mult",
            "cayley_sa": "verify_selfadjoint_formula",
            "cayley_diss": "verify_dissipative_formula",
        }[kind]
        verify = getattr(cli, verifier)

        def spy_check(cfg, path, *args):
            seen["eta"] = path
            return check(cfg, path, *args)

        def spy_verify(subject, *args, **kwargs):
            seen["trial"] = getattr(subject, "circle_path", lambda: subject)()
            return verify(subject, *args, **kwargs)

        monkeypatch.setattr(cli, "_check_step", spy_check)
        monkeypatch.setattr(cli, verifier, spy_verify)
        cfg = CampaignConfig(kind=kind, seed=2, grid=512, out=str(tmp_path / "o"))
        emit_shift_samples(cfg)
        cli._TRIALS[kind](cfg, 0)
        assert np.array_equal(seen["eta"].base, seen["trial"].base)
        assert np.array_equal(seen["eta"].direction, seen["trial"].direction)

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_xi_emission(self, kind, tmp_path):
        cfg = CampaignConfig(kind=kind, seed=4, grid=512,
                             dims=[2], out=str(tmp_path / "o"))
        path = emit_shift_samples(cfg)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,re_xi,im_xi"
        assert len(lines) == 513


class TestDiagnose:
    def test_table_written_one_row_per_rank(self, tmp_path):
        cfg = CampaignConfig(kind="truncate", seed=5, dims=[6], out=str(tmp_path / "o"))
        table = run_diagnose(cfg)
        lines = table.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "rank" and header[-1] == "gap"
        ranks = [float(line.split(",")[0]) for line in lines[1:]]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 6.0


class TestReportCommand:
    def test_aggregates_and_round_trips(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = CampaignConfig(kind="linear", trials=4, seed=12, out=str(out))
        run_campaign(cfg)
        code = main(["report", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "linear" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kinds"]["linear"]["failed"] == 0

    def test_non_finite_values_round_trip_as_strict_json(self, tmp_path, capsys):
        # a NaN rhs and an inf residual reach reports.json as null, summary.csv
        # as nan/inf, and the report command counts them as fails
        reports = [
            VerificationReport(
                kind="mult", lhs=1.5 + 0.5j, rhs=complex(np.nan), residual=float("inf"),
                tol=shift.TRACE_TOL_MULT, passed=False, dim=2, degree=3, seed=i,
                extras={"estimate": float("inf")},
            )
            for i in range(2)
        ]
        out = tmp_path / "o"
        out.mkdir()
        write_reports_json(out / "reports.json", reports)
        write_csv(out / "summary.csv", reports)

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        entries = json.loads((out / "reports.json").read_text(), parse_constant=refuse)
        assert all(e["verdict"] == "fail" for e in entries)
        assert all(e["residual"] is None for e in entries)
        assert all(e["rhs"]["re"] is None for e in entries)
        assert all(e["lhs"] == {"re": 1.5, "im": 0.5} for e in entries)
        assert all(e["extras"]["estimate"] is None for e in entries)
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["residual"] for r in rows] == ["inf", "inf"]
        assert [r["rhs_re"] for r in rows] == ["nan", "nan"]
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert "mult: 0/2 pass" in printed.out and printed.err == ""


class TestJsonWriter:
    def test_same_bytes_as_streaming_json_dump(self, tmp_path):
        # one encoded string in one write: the bytes json.dump would stream
        _, reports = run_campaign(CampaignConfig(kind="truncate", trials=3, seed=2,
                                                 out=str(tmp_path / "o")))
        reports.append(VerificationReport(kind="mult", lhs=1.5 + 0.5j, rhs=complex(np.nan),
                                          residual=float("inf"), tol=1e-7, passed=False))
        data = [rep.to_dict() for rep in reports]
        write_reports_json(tmp_path / "reports.json", reports)
        with open(tmp_path / "streamed.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        got = (tmp_path / "reports.json").read_bytes()
        assert got == (tmp_path / "streamed.json").read_bytes()
        with pytest.raises(ValueError):
            write_json(tmp_path / "nan.json", {"x": float("nan")})


class TestJudge:
    def test_relative_rule_and_the_extra_condition(self):
        start = time.perf_counter()
        # residual 1e-8 against tol 1e-8 on the scale 1 + |lhs| = 2: passes
        rep = VerificationReport.judge("linear", 1.0 + 0j, 1.0 + 1e-8j, 1e-8, start, dim=3, seed=4)
        assert rep.passed and rep.residual == abs(1e-8j) and rep.tol == 1e-8
        assert (rep.kind, rep.dim, rep.seed, rep.degree) == ("linear", 3, 4, 0)
        assert rep.runtime >= 0.0
        # past the scale, or with the extra condition false, it fails
        assert not VerificationReport.judge("mult", 1.0, 1.0 + 3e-8, 1e-8, start).passed
        assert not VerificationReport.judge("cayley_sa", 1.0, 1.0, 1e-8, start, also=False).passed

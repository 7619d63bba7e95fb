import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from randcoh import cli, closedforms, mc
from randcoh.cli import main
from randcoh.ensembles import EnsembleSpec
from randcoh.errors import NumericalError
from randcoh.randkit import RngStream, SeedSpec
from test_mc import _callers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestEstimate:
    def test_coherence_two_by_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "20000", "--seed", "7", "--workers", "2",
        )
        assert code == 0
        (record,) = parse_jsonl(out)
        assert record["schema_version"] == 1
        assert record["command"] == "estimate"
        assert record["seed"] == 7
        entry = record["results"]["coherence"]
        assert entry["closed_form"] == 0.25
        assert entry["verdict"] == "pass"
        assert abs(entry["z"]) <= 4.0

    def test_subentropy_three_by_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--quantity", "subentropy", "--m", "3", "--n", "4",
            "--samples", "20000", "--seed", "7", "--workers", "2",
        )
        assert code == 0
        entry = parse_jsonl(out)[0]["results"]["subentropy"]
        assert entry["closed_form"] == pytest.approx(0.186544011544012, rel=1e-11)
        assert entry["verdict"] == "pass"

    def test_m_above_n_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "4", "--n", "2",
            "--samples", "100", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert "m <= n" in err

    def test_tiny_sample_count_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "1", "--seed", "1",
        )
        assert code == 1
        assert "samples" in err

    def test_missing_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2")
        assert code == 1
        assert err != ""

    def test_bits_flag_rescales_display(self, capsys):
        flags = ["estimate", "--quantity", "diag-entropy", "--m", "2", "--n", "2",
                 "--samples", "2000", "--seed", "3", "--workers", "1"]
        _, out_nats, _ = run_cli(capsys, *flags)
        _, out_bits, _ = run_cli(capsys, *flags, "--bits")
        nats = parse_jsonl(out_nats)[0]["results"]["diag_entropy"]
        bits = parse_jsonl(out_bits)[0]["results"]["diag_entropy"]
        assert bits["mean"] == pytest.approx(nats["mean"] / math.log(2.0), rel=1e-9)
        assert bits["closed_form"] == pytest.approx(nats["closed_form"] / math.log(2.0), rel=1e-9)
        assert bits["z"] == pytest.approx(nats["z"], rel=1e-9)

    def test_out_file_receives_a_copy(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        _, out, _ = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "2000", "--seed", "5", "--workers", "1", "--out", str(out_path),
        )
        assert out_path.read_text() == out

    def test_out_in_a_missing_directory_fails_before_drawing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(mc, "run_comparison", refuse_to_draw)
        out_path = tmp_path / "missing" / "records.jsonl"
        code, out, err = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "100", "--seed", "1", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot append to --out") and "No such file" in err
        assert not out_path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_out_on_a_full_device_exits_one(self, capsys):
        # the device opens for appending, so writing the records fails
        code, _, err = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "100", "--seed", "1", "--workers", "1", "--out", "/dev/full",
        )
        assert code == 1
        assert err.startswith("error: cannot append to --out /dev/full")

    def test_emit_refuses_a_non_finite_number(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        with pytest.raises(NumericalError):
            cli._emit({"results": {"mean": math.nan}}, str(out_path))
        assert capsys.readouterr().out == ""
        assert not out_path.exists()

    @staticmethod
    def assert_subentropy_passes(capsys, *argv):
        code, out, _ = run_cli(capsys, "estimate", "--quantity", "subentropy", *argv, "--workers", "1")
        assert code == 0
        entry = parse_jsonl(out)[0]["results"]["subentropy"]
        assert entry["verdict"] == "pass" and abs(entry["z"]) <= 4.0

    def test_subentropy_that_loses_its_digits_exits_one(self, capsys):
        # the run on which the divided differences of x^m ln x lost every
        # digit and exited 1: the quadrature passes
        self.assert_subentropy_passes(capsys, "--m", "64", "--n", "64", "--samples", "200", "--seed", "1")

    def test_subentropy_above_its_maximum_exits_one(self, capsys):
        # runs on which the divided differences returned values far above
        # 1 + ln m - H_m = 0.41388 and exited 1: the quadrature passes
        for seed in ("1", "2", "3"):
            self.assert_subentropy_passes(capsys, "--m", "56", "--n", "56", "--samples", "100", "--seed", seed)

    def test_non_finite_result_exits_one_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        run_comparison = mc.run_comparison
        monkeypatch.setattr(mc, "run_comparison",
                            lambda config: dataclasses.replace(run_comparison(config), mc_mean=math.inf))
        out_path = tmp_path / "records.jsonl"
        code, out, err = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
            "--samples", "100", "--seed", "5", "--workers", "1", "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert "non-finite" in err
        assert not out_path.exists()


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("the command drew samples for a record it cannot write")


class TestVerify:
    def test_out_naming_a_directory_fails_before_drawing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(mc, "run_comparisons", refuse_to_draw)
        code, out, err = run_cli(
            capsys, "verify", "--m", "2", "--n", "3", "--samples", "100", "--seed", "1", "--out", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot append to --out") and "directory" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n,k", [(mc.GAMMA_CDF_MAX_SHAPE + 1, 1), (mc.GAMMA_CDF_MAX_SHAPE // 2 + 1, 2)])
    def test_refuses_kn_above_the_gamma_cdf_bound_before_drawing(self, capsys, monkeypatch, n, k):
        def refuse(*args):
            raise AssertionError("verify drew samples for a kn it cannot test")

        monkeypatch.setattr(mc, "run_comparisons", refuse)
        monkeypatch.setattr(mc, "diagonal_ks_tests", refuse)
        code, out, err = run_cli(capsys, "verify", "--m", "3", "--n", str(n), "--k", str(k),
                                 "--samples", "10", "--seed", "1", "--workers", "1")
        assert (code, out) == (1, "")
        assert f"k*n <= {mc.GAMMA_CDF_MAX_SHAPE}" in err

    def test_accepts_kn_at_the_gamma_cdf_bound(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--n", str(mc.GAMMA_CDF_MAX_SHAPE),
                               "--samples", "10", "--seed", "1", "--workers", "1")
        assert code in (0, 2)
        records = parse_jsonl(out)
        assert len(records) == 7
        assert records[4]["results"]["wishart_diagonal_gamma_ks"]["samples"] == mc.KS_MIN_SAMPLES

    def test_every_record_at_m_56(self, capsys):
        # all seven records print and the four estimates pass; the exit
        # code follows the verdicts (the KS checks may fail by chance)
        code, out, _ = run_cli(capsys, "verify", "--m", "56", "--n", "56", "--samples", "100", "--seed", "1",
                               "--workers", "1")
        records = parse_jsonl(out)
        assert len(records) == 7
        entries = [entry for record in records for entry in record["results"].values()]
        assert [entry["verdict"] for entry in entries[:4]] == ["pass"] * 4
        assert code == (2 if any(entry["verdict"] == "fail" for entry in entries) else 0)

    def test_small_verify_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk family started a process pool")

        monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
        code, out, _ = run_cli(capsys, "verify", "--m", "4", "--n", "8", "--samples", "200", "--seed", "3",
                               "--workers", "2")
        assert code == 0
        assert len(parse_jsonl(out)) == 7

    @staticmethod
    def counted_pools(monkeypatch):
        started = []

        class Counted(mc.ProcessPoolExecutor):
            def __enter__(self):
                started.append(self)
                return super().__enter__()

        monkeypatch.setattr(mc, "ProcessPoolExecutor", Counted)
        return started

    @pytest.mark.usefixtures("chunks_of_4096")
    def test_one_pool_per_call(self, capsys, monkeypatch):
        # (2, 3): states and spectra are both 3 variates, 1365 draws to a
        # chunk, so 3000 draws make three chunks in each of the two
        # families, and one chunk map runs all six on one pool
        started = self.counted_pools(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "3", "--samples", "3000", "--seed", "4",
                               "--workers", "2")
        assert code == 0
        assert len(started) == 1
        records = parse_jsonl(out)
        assert len({r["wall_time_ms"] for r in records[:4]}) == 1
        assert [name for r in records[:4] for name in r["results"]] == [
            "coherence", "entropy", "diag_entropy", "subentropy"]

    def test_a_multi_chunk_family_beside_a_one_chunk_family_starts_one_pool(self, capsys, monkeypatch):
        # (16, 16): a state is 136 variates, 120 to a chunk, a spectrum 31,
        # 528 to a chunk; 300 draws make 3 chunks of states and 1 of spectra
        started = self.counted_pools(monkeypatch)
        argv = ("verify", "--m", "16", "--n", "16", "--samples", "300", "--seed", "5", "--workers")
        printed = {}
        for workers in ("1", "2"):
            code, out, _ = run_cli(capsys, *argv, workers)
            records = parse_jsonl(out)
            for record in records:
                record.pop("wall_time_ms")
                assert record["parameters"].pop("workers") == int(workers)
            printed[workers] = (code, records)
        assert len(started) == 1
        assert printed["1"] == printed["2"]
        assert len(printed["1"][1]) == 7

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("samples,ks_chunks", [(200, [1000]), (3000, [1365, 1365, 270])])
    def test_one_ks_sample_draw(self, capsys, monkeypatch, samples, ks_chunks):
        # both KS records read one stack of Wishart diagonals: at (2, 3) a
        # state is 3 variates, so the KS sample comes in chunks of 1365,
        # chunk c from stream (seed, ks_factors, c); the estimators draw
        # their states in the states domain
        draws = []
        states = mc.sample_mixing_state
        ks_domain = mc.STREAM_DOMAINS["ks_factors"]

        class KeyedStream(RngStream):
            def __init__(self, seed):
                super().__init__(seed)
                self.seed = seed

        def counted(stream, spec, count):
            drawn = states(stream, spec, count)
            if stream.seed.domain == ks_domain:
                draws.append((stream.seed, drawn.wishart_diagonal))
            return drawn

        monkeypatch.setattr(mc, "RngStream", KeyedStream)
        monkeypatch.setattr(mc, "sample_mixing_state", counted)
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "3", "--samples", str(samples),
                               "--seed", "6", "--workers", "1")
        assert code == 0
        assert [len(w) for _, w in draws] == ks_chunks
        for c, (seed, w) in enumerate(draws):
            assert seed == SeedSpec(6, c, ks_domain)
            assert np.array_equal(w, states(RngStream(seed), EnsembleSpec(2, 3), len(w)).wishart_diagonal)
        records = parse_jsonl(out)
        wall = {name: r["wall_time_ms"] for r in records for name in r["results"]}
        assert wall["wishart_diagonal_gamma_ks"] == wall["diagonal_dirichlet_consistency_ks"]

    def test_small_dimensions_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2", "--n", "3", "--samples", "6000", "--seed", "1",
            "--workers", "2",
        )
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 7
        verdicts = [list(r["results"].values())[0]["verdict"] for r in records]
        assert all(v == "pass" for v in verdicts)
        names = [name for r in records for name in r["results"]]
        assert "derivative_principle_m2" in names
        assert "wishart_diagonal_gamma_ks" in names
        assert "diagonal_dirichlet_consistency_ks" in names

    def test_trivial_dimension_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "1", "--n", "1", "--samples", "100", "--seed", "1",
            "--workers", "1",
        )
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 7
        for record in records:
            for name, entry in record["results"].items():
                if name in ("coherence", "entropy", "diag_entropy", "subentropy"):
                    assert entry["mean"] == 0.0
                    assert entry["closed_form"] == 0.0
                    assert entry["verdict"] == "pass"

    def test_dimension_one_with_an_environment(self, capsys, monkeypatch):
        # rho_00 = 1 in both samples of the Dirichlet consistency check, which
        # therefore cannot fail: it is skipped, and its sample is not drawn
        monkeypatch.setattr(mc, "sample_diag_dirichlet", refuse_to_draw)
        code, out, _ = run_cli(
            capsys, "verify", "--m", "1", "--n", "2", "--samples", "20", "--seed", "3", "--workers", "1",
        )
        assert code == 0
        records = parse_jsonl(out)
        assert len(records) == 7
        assert records[5]["results"] == {"diagonal_dirichlet_consistency_ks": {
            "verdict": "skip", "reason": "m = 1: rho_00 = 1 in both samples"}}

    def test_derivative_check_skipped_off_m2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "3", "--n", "3", "--samples", "4000", "--seed", "2",
            "--workers", "2",
        )
        assert code == 0
        records = parse_jsonl(out)
        entry = [r["results"]["derivative_principle_m2"] for r in records
                 if "derivative_principle_m2" in r["results"]]
        assert entry == [{"verdict": "skip", "reason": "m != 2"}]

    def test_m2_density_bound_is_the_last_kn_with_normal_values_on_the_grid(self):
        def normal_on_the_grid(kn):
            return min(f(kn, float(x)) for x in np.linspace(0.01, 0.99, 50)
                       for f in (closedforms.eigen_density_m2,
                                 closedforms.derivative_principle_density_m2)) >= sys.float_info.min

        assert normal_on_the_grid(cli.M2_DENSITY_MAX_ENV_DIM)
        assert not normal_on_the_grid(cli.M2_DENSITY_MAX_ENV_DIM + 1)

    @pytest.mark.parametrize("n", [cli.M2_DENSITY_MAX_ENV_DIM, cli.M2_DENSITY_MAX_ENV_DIM + 1, 10**6])
    def test_derivative_check_skipped_above_its_kn_bound(self, capsys, n):
        # from k*n = 533 on eigen_density_m2 divides by zero; a skipped check
        # leaves the exit code to the other checks
        code, out, err = run_cli(capsys, "verify", "--m", "2", "--n", str(n), "--samples", "10",
                                 "--seed", "1", "--workers", "1")
        assert code in (0, 2) and err == ""
        records = parse_jsonl(out)
        assert len(records) == 7
        entry = records[-1]["results"]["derivative_principle_m2"]
        if n <= cli.M2_DENSITY_MAX_ENV_DIM:
            assert entry["grid_points"] == 50 and entry["verdict"] in ("pass", "fail")
        else:
            assert entry == {"verdict": "skip", "reason": f"k*n > {cli.M2_DENSITY_MAX_ENV_DIM}: "
                                                          "the m = 2 densities underflow on the grid"}
            others = [v["verdict"] for r in records[:-1] for v in r["results"].values()]
            assert code == (0 if all(v == "pass" for v in others) else 2)


class TestTables:
    HEADER = ("m,n,avg_entropy,avg_diag_entropy,avg_coherence,"
              "avg_subentropy,max_subentropy,rel_err_S,rel_err_Q")

    def test_two_by_two_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--m-list", "2", "--n-list", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == self.HEADER
        cells = lines[1].split(",")
        assert cells[:2] == ["2", "2"]
        values = [float(c) for c in cells[2:7]]
        assert values[0] == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert values[1] == pytest.approx(7.0 / 12.0, rel=1e-11)
        assert values[2] == 0.25
        assert values[3] == pytest.approx(1.0 / 12.0, rel=1e-11)

    def test_dimension_one_rows_have_empty_ratios(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--m-list", "1", "--n-list", "3")
        cells = out.strip().splitlines()[1].split(",")
        assert cells[-2:] == ["", ""]

    def test_rel_err_q_decreases_in_n(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--m-list", "4", "--n-list", "4,8,16,32")
        ratios = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_m_above_n_rows_are_skipped(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--m-list", "2,5", "--n-list", "3")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("2,3,")

    def test_empty_list_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--m-list", "", "--n-list", "2")
        assert code == 1
        assert "m-list" in err

    def test_dimension_below_one_prints_nothing(self, capsys):
        # the (2, 3) row is valid, and still not printed
        code, out, err = run_cli(capsys, "tables", "--m-list", "2,0", "--n-list", "3")
        assert (code, out) == (1, "")
        assert ">= 1" in err

    def test_no_pair_with_m_at_most_n_prints_nothing(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--m-list", "3", "--n-list", "2")
        assert (code, out) == (1, "")
        assert "m <= n" in err


class TestConcentration:
    def test_desk_scale_run_passes_with_vacuous_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "concentration", "--m", "3", "--n", "3", "--epsilon", "0.2",
            "--samples", "10000", "--seed", "4", "--workers", "2",
        )
        assert code == 0
        entry = parse_jsonl(out)[0]["results"]["concentration"]
        assert entry["bound"] == 1.0
        assert entry["bound_vacuous"] is True
        assert entry["empirical_fraction"] <= entry["bound"]
        assert entry["verdict"] == "pass"

    def test_one_sample_is_enough(self, capsys):
        code, out, _ = run_cli(
            capsys, "concentration", "--m", "3", "--n", "3", "--epsilon", "0.2",
            "--samples", "1", "--seed", "4",
        )
        assert code == 0
        assert parse_jsonl(out)[0]["results"]["concentration"]["empirical_fraction"] in (0.0, 1.0)

    def test_m_two_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "concentration", "--m", "2", "--n", "3", "--epsilon", "0.2",
            "--samples", "100", "--seed", "4",
        )
        assert code == 1
        assert "m >= 3" in err

    def test_zero_epsilon_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "concentration", "--m", "3", "--n", "3", "--epsilon", "0",
            "--samples", "100", "--seed", "4",
        )
        assert code == 1
        assert "epsilon" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_a_usage_error(self, capsys, epsilon):
        code, out, err = run_cli(
            capsys, "concentration", "--m", "3", "--n", "3", "--epsilon", epsilon,
            "--samples", "100", "--seed", "4",
        )
        assert code == 1
        assert out == ""
        assert "epsilon" in err


class TestExitRule:
    """estimate, verify and concentration print every record and exit 2
    when some record reads "fail"; a "skip" counts for neither."""

    def test_estimate_that_fails_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(mc, "Z_PASS_THRESHOLD", 0.0)
        code, out, _ = run_cli(capsys, "estimate", "--quantity", "coherence", "--m", "2", "--n", "2",
                               "--samples", "100", "--seed", "5", "--workers", "1")
        assert code == 2
        assert [r["results"]["coherence"]["verdict"] for r in parse_jsonl(out)] == ["fail"]

    def test_verify_with_one_failing_record_prints_all_seven_and_exits_two(self, capsys, monkeypatch):
        run_comparisons = mc.run_comparisons

        def first_fails(configs):
            reports = run_comparisons(configs)
            return [dataclasses.replace(reports[0], passed=False), *reports[1:]]

        monkeypatch.setattr(mc, "run_comparisons", first_fails)
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "3", "--samples", "200", "--seed", "11",
                               "--workers", "1")
        assert code == 2
        verdicts = [entry["verdict"] for r in parse_jsonl(out) for entry in r["results"].values()]
        assert verdicts == ["fail"] + ["pass"] * 6

    def test_concentration_that_fails_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(closedforms, "concentration_bound", lambda m, kn, epsilon: 0.0)
        code, out, _ = run_cli(capsys, "concentration", "--m", "3", "--n", "3", "--epsilon", "0.2",
                               "--samples", "200", "--seed", "4", "--workers", "1")
        assert code == 2
        entry = parse_jsonl(out)[0]["results"]["concentration"]
        assert entry["empirical_fraction"] > entry["bound"] == 0.0
        assert entry["verdict"] == "fail"

    def test_skips_do_not_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "1", "--n", "2", "--samples", "200", "--seed", "14",
                               "--workers", "1")
        assert code == 0
        verdicts = [entry["verdict"] for r in parse_jsonl(out) for entry in r["results"].values()]
        assert verdicts == ["pass"] * 5 + ["skip"] * 2

    def test_a_check_that_raises_exits_one_after_the_records_before_it(self, capsys, monkeypatch):
        def broken(*args):
            raise NumericalError("the KS sample is broken")

        monkeypatch.setattr(mc, "diagonal_ks_tests", broken)
        code, out, err = run_cli(capsys, "verify", "--m", "2", "--n", "3", "--samples", "200", "--seed", "11",
                                 "--workers", "1")
        assert code == 1
        assert err == "error: the KS sample is broken\n"
        assert [name for r in parse_jsonl(out) for name in r["results"]] == [
            "coherence", "entropy", "diag_entropy", "subentropy"]


def test_one_record_path_and_one_exit_rule():
    # only the record reporter and sample's raw lines print; no command
    # turns verdicts into its exit code itself
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert list(_callers(tree, "<module>", "_emit")) == ["_report", "cmd_sample"]
    commands = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert [node.name for node in commands if any(
        isinstance(c, ast.Constant) and c.value == 2
        for r in ast.walk(node) if isinstance(r, ast.Return) and r.value is not None
        for c in ast.walk(r.value))] == []


class TestSample:
    def test_spectrum_lines_are_probability_vectors(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--m", "2", "--n", "2", "--count", "1", "--seed", "3",
            "--what", "spectrum",
        )
        assert code == 0
        (spectrum,) = parse_jsonl(out)
        assert len(spectrum) == 2
        assert all(v >= 0.0 for v in spectrum)
        assert sum(spectrum) == pytest.approx(1.0, abs=1e-9)

    def test_diag_lines_are_probability_vectors(self, capsys):
        _, out, _ = run_cli(
            capsys, "sample", "--m", "3", "--n", "4", "--count", "2", "--seed", "3",
            "--what", "diag",
        )
        for diag in parse_jsonl(out):
            assert len(diag) == 3
            assert all(0.0 <= v <= 1.0 for v in diag)
            assert sum(diag) == pytest.approx(1.0, abs=1e-9)

    def test_state_lines_encode_complex_pairs(self, capsys):
        _, out, _ = run_cli(
            capsys, "sample", "--m", "2", "--n", "3", "--count", "1", "--seed", "9",
        )
        (state,) = parse_jsonl(out)
        assert len(state) == 2 and len(state[0]) == 2 and len(state[0][0]) == 2
        trace = state[0][0][0] + state[1][1][0]
        assert trace == pytest.approx(1.0, abs=1e-9)

    def test_repeat_runs_are_byte_identical(self, capsys):
        flags = ["sample", "--m", "2", "--n", "2", "--count", "3", "--seed", "11",
                 "--what", "state"]
        _, first, _ = run_cli(capsys, *flags)
        _, second, _ = run_cli(capsys, *flags)
        assert first == second

    def test_out_file_holds_the_printed_lines(self, capsys, tmp_path):
        out_path = tmp_path / "draws.jsonl"
        code, out, _ = run_cli(
            capsys, "sample", "--what", "diag", "--m", "2", "--n", "2", "--count", "2", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        assert out_path.read_text() == out

    def test_out_file_is_opened_once(self, capsys, tmp_path, monkeypatch):
        # one open of the --out file for the whole command, not one per record
        out_path = tmp_path / "draws.jsonl"
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted, raising=False)
        code, out, _ = run_cli(
            capsys, "sample", "--what", "spectrum", "--m", "2", "--n", "2", "--count", "3000", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert opened == [str(out_path)]
        assert len(out.splitlines()) == 3000
        assert out_path.read_text() == out

    def test_negative_count_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--m", "2", "--n", "2", "--count", "-3", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "--count" in err

    def test_zero_count_prints_nothing(self, capsys):
        assert run_cli(capsys, "sample", "--m", "2", "--n", "2", "--count", "0", "--seed", "1") == (0, "", "")
        code, out, err = run_cli(capsys, "sample", "--m", "2", "--n", "2", "--count", "0", "--seed", "-1")
        assert (code, out) == (1, "")
        assert "master_seed" in err

    @pytest.mark.parametrize("what", ["state", "spectrum", "diag"])
    def test_prints_the_states_the_estimates_average(self, capsys, what):
        # 250 states at m = 16 are three chunks (120, 120, 10) of the states
        # that the coherence and diag-entropy estimates of that seed average
        spec = EnsembleSpec(16, 20)
        key = mc._draw_key(mc.EstimatorConfig(spec, "coherence", 250, master_seed=21))
        assert key == mc._draw_key(mc.EstimatorConfig(spec, "diag_entropy", 250, master_seed=21))
        assert [size for _, size in mc._chunks(key)] == [120, 120, 10]
        stacks = [mc._draw(key, *chunk) for chunk in mc._chunks(key)]
        if what == "state":
            matrices = np.concatenate([states.matrix for states in stacks])
            expected = np.stack([matrices.real, matrices.imag], axis=-1)
        else:
            expected = np.concatenate([getattr(states, "diagonal" if what == "diag" else what)
                                       for states in stacks])
        code, out, _ = run_cli(capsys, "sample", "--what", what, "--m", "16", "--n", "20", "--count", "250",
                               "--seed", "21")
        assert code == 0
        # printed at 12 significant digits
        assert parse_jsonl(out) == cli._sig12(expected.tolist())


class TestLargestSeed:
    # the largest master seed a Philox key holds
    SEED = str(2**64 - 1)

    def test_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--quantity", "coherence", "--m", "3", "--n", "4", "--samples", "100",
            "--seed", self.SEED, "--workers", "1",
        )
        assert code == 0
        assert parse_jsonl(out)[0]["seed"] == 2**64 - 1

    def test_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2", "--n", "3", "--samples", "100", "--seed", self.SEED, "--workers", "1",
        )
        assert code == 0
        assert [r["seed"] for r in parse_jsonl(out)] == [2**64 - 1] * 7


SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*argv):
    """python -m randcoh.cli argv in a subprocess that imports this
    checkout's package, whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "randcoh.cli", *argv], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_module("tables", "--m-list", "2", "--n-list", "2")
        assert result.returncode == 0
        assert result.stdout.startswith("m,n,avg_entropy")

    def test_usage_error_exit_code(self):
        result = run_module("estimate", "--quantity", "nope", "--m", "2", "--n", "2", "--samples", "10",
                            "--seed", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error: argument --quantity: invalid choice")


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS DYNAMIC_ARCH build, the kind that
    picks its kernels at load time and honours OPENBLAS_CORETYPE."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# small enough to run in a subprocess per kernel; LAPACK solves the m = 16
# states' and spectra's eigenvalues, the arithmetic a BLAS kernel can move
CROSS_KERNEL_BATTERY = (
    "estimate --quantity coherence --m 16 --n 32 --samples 300 --seed {seed} --workers 1",
    "estimate --quantity entropy --m 16 --n 32 --samples 300 --seed {seed} --workers 1",
    "estimate --quantity coherence --m 4 --n 4 --k 2 --samples 2000 --seed {seed} --workers 1",
    "sample --what spectrum --m 16 --n 32 --count 130 --seed {seed}",
)


def battery_under(seeds, **variables) -> list:
    """The records CROSS_KERNEL_BATTERY prints at each seed, without their
    wall_time_ms, from one subprocess with the environment variables set
    (OPENBLAS_CORETYPE to force a BLAS kernel, NPY_DISABLE_CPU_FEATURES to
    narrow numpy's SIMD dispatch)."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    script = "import sys\nfrom randcoh import cli\nfor argv in sys.argv[1:]:\n    cli.main(argv.split())\n"
    commands = [command.format(seed=seed) for seed in seeds for command in CROSS_KERNEL_BATTERY]
    result = subprocess.run([sys.executable, "-c", script, *commands], capture_output=True, text=True, env=env,
                            check=True)
    records = parse_jsonl(result.stdout)
    for record in records:
        if isinstance(record, dict):
            record.pop("wall_time_ms")
    return records


def same_printed_digits(a, b) -> bool:
    """Whether two parsed records are equal, up to numbers one unit apart in
    their 12th significant digit: a value that lies on a rounding boundary
    may print either way under another kernel."""
    if isinstance(a, float) and isinstance(b, float) and a != b:
        return abs(a - b) <= 1.5 * 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 11)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_printed_digits(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_printed_digits(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.skipif(not dynamic_openblas(), reason="numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build")
def test_printed_digits_do_not_depend_on_the_blas_kernel():
    prescott = battery_under([9], OPENBLAS_CORETYPE="Prescott")
    haswell = battery_under([9, 10], OPENBLAS_CORETYPE="Haswell")
    assert len(prescott) == 3 + 130
    assert same_printed_digits(haswell[:len(prescott)], prescott)
    # the comparison can fail: another seed prints other digits
    assert not same_printed_digits(haswell[len(prescott):], prescott)


# numpy's AVX-512 loop groups.  Without them numpy runs its AVX2 loops of
# np.log and np.exp, which round some values differently: the normals and
# every entropy take other bits, and the printed digits must not
SIMD_GROUPS_OFF = "AVX512_SPR AVX512_ICL X86_V4"


def numpy_dispatches(groups: str) -> bool:
    """Whether numpy dispatches loops of every CPU feature group named, and
    this host runs them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return all(group in __cpu_dispatch__ and __cpu_features__.get(group) for group in groups.split())


def log_exp_digest(**variables) -> str:
    """A digest of np.log and np.exp on a fixed grid, from a subprocess with
    the environment variables set."""
    script = ("import hashlib\nimport numpy as np\nx = np.linspace(0.001, 20.0, 100_000)\n"
              "print(hashlib.sha256(np.log(x).tobytes() + np.exp(x).tobytes()).hexdigest())\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, **variables), check=True)
    return result.stdout


@pytest.mark.skipif(not numpy_dispatches(SIMD_GROUPS_OFF), reason="numpy runs no AVX-512 loops on this host")
def test_printed_digits_do_not_depend_on_numpys_simd_dispatch():
    # the narrowed dispatch does move the bits of np.log and np.exp
    assert log_exp_digest() != log_exp_digest(NPY_DISABLE_CPU_FEATURES=SIMD_GROUPS_OFF)
    default = battery_under([9])
    narrowed = battery_under([9, 10], NPY_DISABLE_CPU_FEATURES=SIMD_GROUPS_OFF)
    assert len(default) == 3 + 130
    assert same_printed_digits(narrowed[:len(default)], default)
    # the comparison can fail: another seed prints other digits
    assert not same_printed_digits(narrowed[len(default):], default)


def test_printed_digits_allow_a_rounding_boundary_only():
    assert same_printed_digits([{"mean": 0.0239370263777, "n": 3}], [{"mean": 0.0239370263778, "n": 3}])
    assert same_printed_digits([1.0, 0.0], [1.0, 0.0])
    for other in ([{"mean": 0.0239370263779, "n": 3}], [{"mean": 0.0239370263777, "n": 4}],
                  [{"mean": 0.0239370263777}], [{"mean": 0.0239370263777, "n": 3}, 1.0]):
        assert not same_printed_digits([{"mean": 0.0239370263777, "n": 3}], other)


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        cli.build_parser.cache_clear()
        try:
            for _ in range(3):
                code, out, _ = run_cli(capsys, "tables", "--m-list", "2", "--n-list", "2")
                assert code == 0 and out.startswith("m,n,")
            # the parser and its five subcommand parsers, built by the first call only
            assert len(built) == 6
        finally:
            cli.build_parser.cache_clear()

    def test_default_workers_resolve_when_the_command_runs(self, capsys, monkeypatch):
        argv = ("estimate", "--quantity", "coherence", "--m", "2", "--n", "2", "--samples", "100",
                "--seed", "5")
        workers = []
        for count in (1, 3):
            monkeypatch.setattr(mc, "default_workers", lambda count=count: count)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            workers.append(parse_jsonl(out)[0]["parameters"]["workers"])
        assert workers == [1, 3]

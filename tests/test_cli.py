"""CLI behavior: output formats, CSV contract, exit codes, configuration."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eur import cli, core, oracle, solve
from eur.errors import VerificationError

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_mu_region(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--c", "0.5")
        assert code == 0
        fields = {
            k.strip(): v
            for k, v in (line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line)
        }
        assert float(fields["b_mu"]) == pytest.approx(2 * LN2, abs=1e-11)
        assert fields["region"] == "MuRegion"
        assert fields["m_inf"].strip() == f"{core.m_inf(0.5):.12g}"
        assert fields["h1"].strip() == ""

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--c", "0.9", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["region"] == "FRegion"
        assert rec["b_vs"] == pytest.approx(rec["f"], abs=1e-12)
        assert rec["m_inf"] is None
        assert rec["h1"] is None
        assert rec["witness_p_a"] == pytest.approx(0.95)
        assert rec["unit"] == "nats"

    def test_c_star_is_f_region_with_blank_h1(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--c", repr(solve.c_star().root), "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["region"] == "FRegion"
        assert rec["h1"] is None
        assert rec["b_vs"] == rec["f"]

    def test_bits_conversion(self, capsys):
        _, out_nats, _ = run_cli(capsys, "eval", "--c", "0.8", "--json")
        _, out_bits, _ = run_cli(capsys, "eval", "--c", "0.8", "--bits", "--json")
        nats, bits = json.loads(out_nats), json.loads(out_bits)
        for key in ("b_mu", "f", "g", "lattice", "h1", "b_vs"):
            assert bits[key] == pytest.approx(nats[key] / LN2, abs=1e-12)
        assert bits["theta"] == nats["theta"]
        assert bits["region"] == nats["region"]
        assert bits["unit"] == "bits"

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--c", "1.5")
        assert code == 2
        assert "(0, 1]" in err

    # c*c underflows to 0, or is subnormal so that 1/c^2 overflows: a domain
    # error, not a ZeroDivisionError or OverflowError
    @pytest.mark.parametrize("c", ["1e-170", "1e-160"])
    def test_underflowing_overlap_exit_2(self, capsys, c):
        code, out, err = run_cli(capsys, "eval", "--c", c)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("c,c2", [("1e-160", "1e-320"), ("5e-324", "0.0")])
    def test_underflowing_overlap_names_c_squared(self, capsys, c, c2):
        code, out, err = run_cli(capsys, "eval", "--c", c)
        assert (code, out) == (2, "")
        assert err == f"error: c^2 = {c2} is too small: 1/c^2 overflows\n"


class TestConstants:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert "c_star" in out and "c_dagger" in out

    def test_json_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, "constants", "--json")
        code2, out2, _ = run_cli(capsys, "constants", "--json")
        assert code == code2 == 0
        assert out1 == out2
        rec = json.loads(out1)
        assert rec["c_star"]["value"] == pytest.approx(0.8335565596009647, abs=1e-12)
        assert rec["c_star"]["residual"] <= 1e-12
        assert rec["c_dagger"]["value"] == pytest.approx(0.6109737705648677, abs=1e-10)
        assert rec["c_star"]["iterations"] > 0
        assert rec["c_star"]["bracket_lo"] < rec["c_star"]["value"] < rec["c_star"]["bracket_hi"]


class TestSweep:
    def test_full_contract(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--from", "0.1", "--to", "0.99", "--step", "0.01",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.endswith("\n")
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["c", "theta", "b_mu", "f", "g", "lattice", "m_inf", "h1", "b_vs", "region"]
        data = rows[1:]
        assert len(data) == 90

        cs = solve.c_star().root
        prev_region = None
        for row in data:
            c = float(row[0])
            region = row[9]
            # blank-cell policy
            assert (row[6] == "") == (c >= core.INV_SQRT2)
            assert (row[7] == "") == (not core.INV_SQRT2 <= c < cs)
            # piecewise value equals the branch column
            branch = {"MuRegion": row[2], "H1Region": row[7], "FRegion": row[3]}[region]
            assert float(row[8]) == pytest.approx(float(branch), abs=1e-12)
            if prev_region is not None:
                assert (prev_region, region) in (
                    (prev_region, prev_region),
                    ("MuRegion", "H1Region"),
                    ("H1Region", "FRegion"),
                )
            prev_region = region
        # transitions at the first sample past each boundary
        regions = {float(r[0]): r[9] for r in data}
        assert regions[0.7] == "MuRegion"
        assert regions[0.71] == "H1Region"
        assert regions[0.83] == "H1Region"
        assert regions[0.84] == "FRegion"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--from", "0.3", "--to", "0.9", "--step", "0.05", "--out", str(p1))
        run_cli(capsys, "sweep", "--from", "0.3", "--to", "0.9", "--step", "0.05", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_at_one_has_zero_bounds(self, tmp_path, capsys):
        out_path = tmp_path / "one.csv"
        run_cli(capsys, "sweep", "--from", "0.5", "--to", "1.0", "--step", "0.25", "--out", str(out_path))
        rows = list(csv.reader(out_path.read_text().splitlines()))
        last = rows[-1]
        assert float(last[0]) == 1.0
        for idx in (2, 3, 4, 5, 8):  # b_mu, f, g, lattice, b_vs
            assert float(last[idx]) == 0.0

    def test_bad_range_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--from", "0.9", "--to", "0.2", "--step", "0.01",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("step", ["5e-324", "1e-300"])
    def test_step_too_small_exit_2(self, tmp_path, capsys, step):
        # 5e-324 overflows the row count; 1e-300 never moves c off 0.1
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--from", "0.1", "--to", "0.2", "--step", step, "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "too small" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "step,message", [("nan", "step > 0"), ("inf", "finite")], ids=["nan", "inf"]
    )
    def test_nan_step_exit_2(self, tmp_path, capsys, step, message):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--from", "0.1", "--to", "0.2", "--step", step, "--out", str(out_path),
        )
        assert code == 2
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("step", ["1e6", "1e300"])
    def test_step_past_the_range_writes_from(self, tmp_path, capsys, step):
        # step * 1e-6 exceeds to - from; the only row must stay at --from
        out_path = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--from", "0.1", "--to", "0.2", "--step", step, "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert [row[0] for row in rows[1:]] == ["0.1"]

    def test_bits_scaling(self, tmp_path, capsys):
        p1, p2 = tmp_path / "n.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--from", "0.4", "--to", "0.6", "--step", "0.1", "--out", str(p1))
        run_cli(capsys, "sweep", "--from", "0.4", "--to", "0.6", "--step", "0.1", "--out", str(p2), "--bits")
        for rn, rb in zip(
            list(csv.reader(p1.read_text().splitlines()))[1:],
            list(csv.reader(p2.read_text().splitlines()))[1:],
        ):
            assert float(rb[2]) == pytest.approx(float(rn[2]) / LN2, abs=1e-11)


def _reference_cell(x):
    return "" if x is None else f"{x + 0.0:.12g}"


SWEEP_HEADER = ["c", "theta", "b_mu", "f", "g", "lattice", "m_inf", "h1", "b_vs", "region"]


def reference_sweep_csv(lo, hi, step, bits=False):
    """The sweep CSV built without cli: every column from its own core or
    solve function, converted to bits by core.nats_to_bits, and written by
    csv.writer with one format call per cell.  Kept as the reference for
    the sweep writer, which reuses b_vs for the column of its own region."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for k in range(int(math.floor((hi - lo) / step + 1e-9)) + 1):
        c = lo + k * step
        if k and abs(c - hi) < step * 1e-6:
            c = hi
        elif c > hi:
            break
        report = solve.b_vs(c)
        region = str(report.region.tag)
        entropies = [
            core.b_mu(c),
            core.f_bound(c),
            core.g_bound(c),
            core.lattice_bound(c),
            core.m_inf(c) if region == "MuRegion" else None,
            report.nats if region == "H1Region" else None,
            report.nats,
        ]
        if bits:
            entropies = [None if x is None else core.nats_to_bits(x) for x in entropies]
        writer.writerow([*map(_reference_cell, [c, math.acos(c), *entropies]), region])
    return out.getvalue()


class TestSweepWriter:
    """The sweep writer is byte-identical to reference_sweep_csv."""

    @staticmethod
    def sweep(capsys, tmp_path, lo, hi, step, *flags):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--from", repr(lo), "--to", repr(hi), "--step", repr(step),
            "--out", str(out_path), *flags,
        )
        assert code == 0
        data = out_path.read_bytes()
        assert data == reference_sweep_csv(lo, hi, step, bits="--bits" in flags).encode()
        return list(csv.reader(data.decode().splitlines()))

    def test_all_regions_to_one(self, capsys, tmp_path):
        # b_mu(1) is -0.0 and must print as 0
        assert math.copysign(1.0, core.b_mu(1.0)) == -1.0
        rows = self.sweep(capsys, tmp_path, 0.3, 1.0, 0.0125)
        assert {row[9] for row in rows[1:]} == {"MuRegion", "H1Region", "FRegion"}
        assert rows[-1][:3] == ["1", "0", "0"]

    def test_rows_at_both_region_edges(self, capsys, tmp_path):
        lo, cs = core.INV_SQRT2, solve.c_star().root
        rows = self.sweep(capsys, tmp_path, lo, cs, (cs - lo) / 7)
        first, last = rows[1], rows[-1]
        assert (first[0], first[6], first[9]) == (f"{lo:.12g}", "", "H1Region")
        assert (last[0], last[7], last[9]) == (f"{cs:.12g}", "", "FRegion")

    def test_bits(self, capsys, tmp_path):
        rows = self.sweep(capsys, tmp_path, 0.05, 1.0, 0.0125, "--bits")
        assert rows[-1][:3] == ["1", "0", "0"]

    @pytest.mark.parametrize("flags", [(), ("--bits",)], ids=["nats", "bits"])
    @pytest.mark.parametrize(
        "edge,regions",
        [("inv_sqrt2", ["MuRegion", "H1Region", "H1Region"]), ("c_star", ["H1Region", "FRegion", "FRegion"])],
    )
    def test_one_ulp_either_side_of_a_region_edge(self, capsys, tmp_path, edge, regions, flags):
        e = core.INV_SQRT2 if edge == "inv_sqrt2" else solve.c_star().root
        rows = self.sweep(capsys, tmp_path, math.nextafter(e, 0.0), math.nextafter(e, 1.0), math.ulp(e), *flags)
        assert [row[9] for row in rows[1:]] == regions


# Floats a cell must print as f"{x + 0.0:.12g}": signed zeros, infinities,
# nan, subnormals, the normal limits, 1 - ulp, and values whose 12-digit
# rounding carries or switches to an exponent
SPECIAL_CELLS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308, math.nextafter(1.0, 0.0),
    1.0, -1.0, 0.9999999999995, 99999999999.95, 999999999999.5, 1e-5, 0.0001, 1e16, 0.1, -2.0 * math.log(1.0),
]


class TestCellFormat:
    """Every float prints as f"{x + 0.0:.12g}", in a sweep cell and in an
    eval cell, and None as an empty cell."""

    @staticmethod
    def sweep_rows(tmp_dir, rows):
        """The lines cmd_sweep writes when cli._row yields `rows`, a list of
        six (region, values) pairs, at the overlaps 0.5, 0.6, ..., 1."""
        pending = iter(rows)

        def fake_row(c, bits):
            region, values = next(pending)
            return list(values), region, None

        out_path = tmp_dir / "cells.csv"
        argv = ["sweep", "--from", "0.5", "--to", "1", "--step", "0.1", "--out", str(out_path)]
        with mock.patch.object(cli, "_row", fake_row):
            assert cli.main(argv) == 0
        assert next(pending, None) is None
        return out_path.read_text().splitlines()

    @staticmethod
    def expected_lines(rows):
        return [",".join(SWEEP_HEADER)] + [
            ",".join([*map(_reference_cell, values), region]) for region, values in rows
        ]

    def test_special_floats(self, tmp_path):
        cells = (SPECIAL_CELLS * 3)[:54]
        rows = [("R", cells[k : k + 9]) for k in range(0, 27, 9)]
        # a second region, blank in the m_inf and h1 columns, as the F region is
        rows += [("S", [*cells[k : k + 6], None, None, cells[k + 6]]) for k in range(27, 54, 9)]
        assert self.sweep_rows(tmp_path, rows) == self.expected_lines(rows)
        assert cli._cells(SPECIAL_CELLS + [None]) == [*map(_reference_cell, SPECIAL_CELLS), ""]
        assert cli._cells([-0.0]) == ["0"]

    @settings(max_examples=200, deadline=None)
    @given(
        blanks=st.fixed_dictionaries(
            {region: st.lists(st.booleans(), min_size=9, max_size=9) for region in ("MuRegion", "H1Region", "FRegion")}
        ),
        draws=st.lists(
            st.tuples(
                st.sampled_from(["MuRegion", "H1Region", "FRegion"]),
                st.lists(st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats()), min_size=9, max_size=9),
            ),
            min_size=6,
            max_size=6,
        ),
    )
    def test_any_floats(self, tmp_path_factory, blanks, draws):
        # one blank pattern per region, as cli._row has
        rows = [
            (region, [None if blank else x for blank, x in zip(blanks[region], values)])
            for region, values in draws
        ]
        assert self.sweep_rows(tmp_path_factory.mktemp("cells"), rows) == self.expected_lines(rows)
        for _, values in rows:
            assert cli._cells(values) == [*map(_reference_cell, values)]


class TestWriteFailures:
    """A failed write to --out or stdout prints one error line, and nothing
    at interpreter exit, and exits 2."""

    @staticmethod
    def run(argv, stdout):
        proc = subprocess.run(
            [sys.executable, "-m", "eur.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        return proc.returncode, proc.stderr

    @staticmethod
    def run_closed_stdout(argv):
        proc = subprocess.run(
            ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "eur.cli", *argv],
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        return proc.returncode, proc.stderr

    def test_unopenable_out_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--from", "0.5", "--to", "0.9", "--step", "0.1", "--out", str(tmp_path),
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_exit_2(self):
        argv = ["sweep", "--from", "0.5", "--to", "0.9", "--step", "0.01", "--out", "/dev/full"]
        code, err = self.run(argv, subprocess.DEVNULL)
        assert (code, err) == (2, "error: cannot write /dev/full: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["eval", "--c", "0.8"], ["eval", "--c", "0.8", "--json"]])
    def test_full_stdout_exit_2(self, argv):
        with open("/dev/full", "w") as full:
            code, err = self.run(argv, full)
        assert (code, err) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize(
        "argv", [["constants"], ["verify", "--suite", "critique"]], ids=["constants", "critique"]
    )
    def test_closed_pipe_exit_2(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            code, err = self.run(argv, write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--c", "0.8"],
            ["constants"],
            ["critique", "--c", "0.6"],
            ["verify", "--suite", "critique"],
        ],
        ids=["eval", "constants", "critique", "verify"],
    )
    def test_closed_stdout_exit_2(self, argv):
        # Python sets sys.stdout to None when descriptor 1 is closed at start
        code, err = self.run_closed_stdout(argv)
        assert (code, err) == (2, "error: cannot write stdout: [Errno 9] Bad file descriptor\n")

    def test_closed_stdout_sweep_writes_its_file(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--from", "0.5", "--to", "0.9", "--step", "0.1", "--out", str(out)]
        assert self.run_closed_stdout(argv) == (0, "")
        assert out.read_text().count("\n") == 6


class TestCritique:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "critique", "--c", "0.6")
        assert code == 0
        assert "INADMISSIBLE" in out
        assert "admissible interval" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "critique", "--c", "0.3", "--json")
        assert code == 0
        rec = json.loads(out)
        assert len(rec["roots"]) >= 1
        assert all(not r["admissible"] for r in rec["roots"])

    def test_json_key_order(self, capsys):
        code, out, _ = run_cli(capsys, "critique", "--c", "0.6", "--json")
        assert code == 0
        rec = json.loads(out)
        assert list(rec) == ["c", "theta", "interval_lo", "interval_hi", "roots"]
        assert rec["roots"]
        for root in rec["roots"]:
            assert list(root) == ["alpha", "p_a", "p_b", "residual", "admissible", "violated_constraint"]

    def test_outside_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "critique", "--c", "0.75")
        assert code == 2
        assert "1/sqrt(2)" in err

    def test_overlap_below_angle_resolution_exit_2(self, capsys):
        # arccos(1e-17) rounds to pi/2: the error names c, not the angle
        code, out, err = run_cli(capsys, "critique", "--c", "1e-17")
        assert (code, out) == (2, "")
        assert err == "error: c = 1e-17 is too small: arccos(c) rounds to pi/2\n"


class TestVerify:
    def test_critique_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "critique")
        assert code == 0
        assert "RESULT:" in out
        assert "FAIL" not in out

    def test_qubit_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "qubit", "--c-list", "0.75", "0.9")
        assert code == 0
        assert out.count("PASS qubit") == 2

    def test_shape_suite_reports_info(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "shape", "--c-list", "0.5")
        assert code == 0
        assert "INFO" in out
        assert out.splitlines()[-1] == "RESULT: 1 passed, 0 failed"  # INFO is not counted

    @pytest.mark.parametrize("c", ["1e-4", "0.99985"])
    def test_shape_suite_on_a_narrow_interval(self, capsys, c):
        # the second-difference step of clause (e) must stay inside an
        # admissible interval narrower than 2e-4
        code, out, _ = run_cli(capsys, "verify", "--suite", "shape", "--c-list", c)
        assert code == 0
        assert out.startswith(f"PASS shape c={float(c):g} ")

    def test_shape_failure_is_reported_and_counted(self, capsys, monkeypatch):
        def boom(c, grid):
            raise VerificationError("boom")

        monkeypatch.setattr(oracle, "shape_check", boom)
        code, out, _ = run_cli(capsys, "verify", "--suite", "shape", "--c-list", "0.5")
        assert code == 4
        lines = out.splitlines()
        assert lines[0] == "FAIL shape c=0.5 boom"
        assert lines[1].startswith("INFO shape measured limit of b_mu - m_inf")
        assert lines[2:] == ["RESULT: 0 passed, 1 failed"]

    def test_random_failure_is_reported_per_dimension(self, capsys, monkeypatch):
        calls = []

        def violated(dim, samples, seed):
            calls.append((dim, samples, seed))
            return oracle.RandomStateSummary(dim, samples, seed, -2.5e-3, 42, 0.75)

        monkeypatch.setattr(oracle, "random_state_check", violated)
        code, out, _ = run_cli(capsys, "verify", "--suite", "random")
        assert code == 4
        assert out.splitlines() == [
            *(
                f"FAIL random dim={dim} samples=10000 tightest margin = -2.500e-03 at c = 0.7500 (tol 1e-09)"
                for dim in (2, 3, 4, 5)
            ),
            "RESULT: 0 passed, 4 failed",
        ]
        assert calls == [(dim, 10_000, 1234) for dim in (2, 3, 4, 5)]

    @pytest.mark.parametrize("flag", ["--c-list", "--c"])
    def test_random_suite_rejects_c_list(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", "--suite", "random", flag, "0.8")
        assert code == 2
        assert out == ""
        assert "draws its own overlaps" in err

    def test_all_suite_rejects_c_list_before_running(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "grid_min", lambda *a, **k: calls.append(a))
        # `all` includes the random suite, which draws its own overlaps
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--c-list", "0.8")
        assert code == 2
        assert out == ""
        assert "the random suite draws its own overlaps" in err
        assert calls == []

    @pytest.mark.parametrize("suite", ["random", "all"])
    def test_negative_seed_exit_2_before_running(self, suite):
        # a fresh process, so a traceback would show on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "eur.cli", "verify", "--suite", suite, "--seed", "-5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""  # `all` would print grid, qubit and shape lines first
        assert "Traceback" not in proc.stderr
        assert "--seed must be a non-negative integer, got -5" in proc.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf"])
    @pytest.mark.parametrize("route", ["flag", "env"])
    @pytest.mark.parametrize("suite", ["grid", "all"])
    def test_bad_tolerance_exit_2_before_running(self, capsys, monkeypatch, tol, route, suite):
        calls = []
        monkeypatch.setattr(oracle, "grid_min", lambda *a, **k: calls.append(a))
        if route == "env":
            monkeypatch.setenv("EUR_TOL", tol)
            argv = ["verify", "--suite", suite]
        else:
            monkeypatch.delenv("EUR_TOL", raising=False)
            argv = ["verify", "--suite", suite, f"--tol={tol}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert calls == []
        assert err == f"error: tolerance must be finite and non-negative, got {float(tol)!r}\n"

    def test_zero_tolerance_is_accepted(self, capsys):
        # the qubit gap at c = 1 is exactly 0
        code, out, _ = run_cli(capsys, "verify", "--suite", "qubit", "--c-list", "1", "--tol", "0")
        assert code == 0
        assert out.startswith("PASS qubit c=1 |oracle-analytic| = 0.000e+00 (tol 0)")

    @staticmethod
    def raise_bound(monkeypatch, by):
        """Make the bound the oracles check against too high by `by`."""
        b_vs = oracle.b_vs

        def raised(c):
            report = b_vs(c)
            return report._replace(nats=report.nats + by)

        monkeypatch.setattr(oracle, "b_vs", raised)

    def test_raised_bound_fails_exit_4(self, capsys, monkeypatch):
        # a bound wrong by 1e-7 in the H1 and F regions is caught at the default tolerance
        self.raise_bound(monkeypatch, 1e-7)
        argv = ["verify", "--suite", "grid", "--c-list", "0.75", "0.8", "0.9"]
        code, out, _ = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 4
        assert [line.split(" |")[0] for line in lines[:-1]] == [
            "FAIL grid c=0.75",
            "FAIL grid c=0.8",
            "FAIL grid c=0.9",
        ]
        assert lines[-1] == "RESULT: 0 passed, 3 failed"

    def test_tight_tolerance_fails_exit_4(self, capsys, monkeypatch):
        # a gap of 1e-7 passes at tol 1e-6 and is surfaced as FAIL at 1e-8
        self.raise_bound(monkeypatch, 1e-7)
        argv = ["verify", "--suite", "grid", "--c", "0.9", "--tol"]
        code, out, _ = run_cli(capsys, *argv, "1e-6")
        assert code == 0
        assert out.startswith("PASS grid c=0.9 |oracle-analytic| = 1.000e-07 (tol 1e-06)")
        code, out, _ = run_cli(capsys, *argv, "1e-8")
        assert code == 4
        assert out.startswith("FAIL grid c=0.9 |oracle-analytic| = 1.000e-07 (tol 1e-08)")

    def test_tolerance_decides_the_random_suite(self, capsys, monkeypatch):
        # at seed 7 the dim=2 margin is 2.9e-5, so a bound raised by 1e-4
        # undercuts it by about 7e-5: inside 1e-3, outside the default 1e-9
        self.raise_bound(monkeypatch, 1e-4)
        argv = ["verify", "--suite", "random", "--seed", "7"]
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-3")
        assert code == 0
        assert out.count("PASS random") == 4
        code, out, _ = run_cli(capsys, *argv)
        assert code == 4
        lines = out.splitlines()
        assert lines[0].startswith("FAIL random dim=2 samples=10000 tightest margin = -")
        assert [line.split(" samples")[0] for line in lines[1:4]] == [
            "PASS random dim=3",
            "PASS random dim=4",
            "PASS random dim=5",
        ]
        assert lines[-1] == "RESULT: 3 passed, 1 failed"

    def test_every_line_shows_the_tolerance_that_decided_it(self, capsys):
        # one --tol sets grid, qubit, random and critique; shape takes none
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--tol", "1e-3")
        assert code == 0
        lines = out.splitlines()[:-1]
        suites = [line.split()[1] for line in lines]
        assert [suite for suite in dict.fromkeys(suites)] == list(cli._SUITES)
        for suite, line in zip(suites, lines):
            assert line.endswith(" (tol 0.001)") == (suite != "shape"), line

    def test_random_suite_seeded(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "random", "--seed", "3")
        assert code == 0
        assert out.count("PASS random") == 4


class TestConfigPrecedence:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("EUR_TOL", "0.5")
        assert cli._setting(1e-6, "EUR_TOL", float, "a number", 2e-3) == 1e-6

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("EUR_TOL", "0.125")
        assert cli._setting(None, "EUR_TOL", float, "a number", 2e-3) == 0.125
        monkeypatch.setenv("EUR_GRID", "1234")
        assert cli._setting(None, "EUR_GRID", int, "an integer", 2001) == 1234

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("EUR_TOL", raising=False)
        assert cli._setting(None, "EUR_TOL", float, "a number", 2e-3) == 2e-3

    def test_env_tolerance_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("EUR_TOL", "1e-12")
        code, out, _ = run_cli(capsys, "verify", "--suite", "grid", "--c", "0.9")
        assert code == 0
        assert out.startswith("PASS grid c=0.9 ")
        assert "(tol 1e-12)" in out  # the env override is active, not the default 1e-9


class TestExitCodes:
    def test_convergence_failure_exit_3(self, capsys, monkeypatch):
        from eur.errors import ConvergenceError

        def boom():
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(cli.solve, "c_star", boom)
        code, _, err = run_cli(capsys, "constants")
        assert code == 3
        assert "no convergence" in err

    def test_mirrored_value_failure_exit_3(self, capsys, monkeypatch):
        # the mirror of the H1 witness off by 1e-6: the H1 solve's own check fires
        p_b, calls = solve._p_b, []

        def off_on_mirror(p, c):
            calls.append(p)
            return p_b(p, c) + (1e-6 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(solve, "_p_b", off_on_mirror)
        code, out, err = run_cli(capsys, "eval", "--c", "0.75")
        assert (code, out) == (3, "")
        assert err.startswith("error: mirrored stationary values disagree at c = 0.75: ")
        assert len(calls) == 2

    def test_bracket_failure_exit_3(self, capsys, monkeypatch):
        from eur.errors import BracketError

        def boom(c):
            raise BracketError("no sign change")

        monkeypatch.setattr(cli.solve, "critique_report", boom)
        code, out, err = run_cli(capsys, "critique", "--c", "0.6")
        assert (code, out, err) == (3, "", "error: no sign change\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eur.cli", "eval", "--c", "0.5", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["region"] == "MuRegion"

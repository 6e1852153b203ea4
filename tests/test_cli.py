"""End-to-end CLI behaviour: output formats, exit codes, the state budget flag."""

import argparse
import json
import time
from pathlib import Path

import pytest

from capcomp import ResourceLimitError, capacity, cli, outage, verify

# recorded command outputs
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCapacity:
    def test_rll_plain(self, capsys):
        rc, out, err = run(capsys, "capacity", "--family", "rll", "--d", "2")
        assert (rc, out, err) == (0, "0.551463\n", "")

    def test_sec_one_zero(self, capsys):
        rc, out, _ = run(capsys, "capacity", "--family", "sec-one-zero", "--t", "3")
        assert rc == 0 and out == "0.666667\n"

    def test_swc_json(self, capsys):
        rc, out, _ = run(
            capsys, "capacity", "--family", "swc", "--t", "3", "--w", "2", "--json"
        )
        record = json.loads(out)
        assert rc == 0
        # a one-zero window is rated by its run-length root
        assert record["method"] == "closed-form"
        assert abs(record["value"] - 0.5514630897455957) < 1e-8

    @pytest.mark.parametrize(
        "t,w,flags,expect",
        [
            (30, 1, [], lambda: capacity.zero_run_capacity(30)),
            (64, 63, ["--state-budget", "8"], lambda: capacity.rll_capacity(63)),
        ],
    )
    def test_root_windows_answer_past_the_budget(self, capsys, t, w, flags, expect):
        rc, out, err = run(
            capsys, "capacity", "--family", "swc", "--t", str(t), "--w", str(w), "--json", *flags
        )
        assert (rc, err) == (0, "")
        record = json.loads(out)
        assert record["method"] == "closed-form"
        assert record["value"] == expect().value

    def test_missing_parameter(self, capsys):
        rc, out, err = run(capsys, "capacity", "--family", "rll")
        assert rc == 1 and out == "" and err.startswith("error:")


class TestOutage:
    def test_sec_text(self, capsys):
        rc, out, _ = run(
            capsys, "outage", "--family", "sec", "--b", "3/5", "--emax", "6/5"
        )
        assert rc == 0 and out == "0.666667 (L=3, w=2)\n"

    def test_sec_without_feasible_code(self, capsys):
        rc, out, _ = run(capsys, "outage", "--family", "sec", "--b", "3/5", "--emax", "1")
        assert rc == 0 and out == "0.000000 (no feasible code)\n"

    def test_lower_bound_tag(self, capsys):
        rc, out, _ = run(
            capsys, "outage", "--family", "swc-lower", "--b", "3/5", "--emax", "1"
        )
        assert rc == 0
        assert out == "0.400000 (T=3, w=2) [lower-bound]\n"

    def test_all_report(self, capsys):
        rc, out, _ = run(
            capsys, "outage", "--family", "all", "--b", "3/5", "--emax", "6/5"
        )
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "o_rll: 0.551463 (d=2)"
        assert lines[1] == "o_swc: 0.697922 (T=5, w=3)"
        assert lines[2] == "o_sec: 0.666667 (L=3, w=2)"
        assert lines[3] == "gap_swc_rll: 0.146459"
        assert lines[4] == "gap_sec_rll: 0.115204"
        assert lines[5] == "ceiling: 0.970951"

    def test_json(self, capsys):
        rc, out, _ = run(
            capsys,
            "outage", "--family", "sec", "--b", "3/5", "--emax", "6/5", "--json",
        )
        record = json.loads(out)
        assert rc == 0
        assert record["params"] == [3, 2]
        assert record["method"] == "exact"
        assert abs(record["value"] - 2 / 3) < 1e-12

    def test_large_run_length_has_no_overflow(self, capsys):
        # d = 9999, where the characteristic polynomial overflows a float
        rc, out, err = run(
            capsys, "outage", "--family", "rll", "--b", "9999/10000", "--emax", "1"
        )
        assert (rc, err) == (0, "")
        assert out == "0.001043 (d=9999)\n"

    def test_subblock_cap_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "outage", "--family", "sec", "--b", "3/5", "--emax", "6/5",
                "--lcap", "3")
        assert exc.value.code == 2

    def test_bad_rational(self, capsys):
        rc, _, err = run(
            capsys,
            "outage", "--family", "rll", "--b", "0.3333333333333", "--emax", "1",
        )
        assert rc == 1 and err.startswith("error:")

    def test_scan_past_the_span_limit_is_an_error(self, capsys):
        # the window scan would visit 10^7 + 11 spans
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "outage", "--family", "all", "--b", "1/1000000", "--emax", "10"
        )
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err == "error: candidate scan would reach span 10000011, over the limit of 100000\n"

    @pytest.mark.parametrize("family,span", [("swc-lower", 10000011), ("sec-lower", 5000006)])
    def test_explicit_bound_past_the_span_limit_is_an_error(self, capsys, family, span):
        # the explicit bounds evaluate only the pivot, but still refuse one past the limit
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "outage", "--family", family, "--b", "1/1000000", "--emax", "10"
        )
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err == f"error: candidate scan would reach span {span}, over the limit of 100000\n"

    @pytest.mark.parametrize("b,rate", [("14/20", "0.464958"), ("17/20", "0.328173")])
    def test_zero_gap_prints_without_sign(self, capsys, b, rate):
        # the window optimum is the (d+1, d) window, whose capacity is o_rll's
        rc, out, _ = run(capsys, "outage", "--family", "all", "--b", b, "--emax", "1")
        lines = out.splitlines()
        assert rc == 0
        assert lines[0].startswith(f"o_rll: {rate} ")
        assert lines[1].startswith(f"o_swc: {rate} ")
        assert lines[3] == "gap_swc_rll: 0.000000"
        assert lines[4] == f"gap_sec_rll: -{rate}"


class TestSimulate:
    def test_trace_is_exact(self, capsys):
        rc, out, _ = run(
            capsys, "simulate", "--b", "3/5", "--emax", "1", "--bits", "101"
        )
        record = json.loads(out)
        assert rc == 0
        assert record["bits"] == "101"
        assert record["levels"] == ["1", "1", "2/5", "4/5"]
        assert record["outages"] == []
        assert record["overflows"] == [1]
        assert record["params"]["b"] == "3/5"

    def test_adversarial_witness(self, capsys):
        rc, out, _ = run(
            capsys,
            "simulate", "--b", "1/2", "--emax", "3/2",
            "--family", "sec", "--l", "4", "--w", "2", "--adversarial",
        )
        record = json.loads(out)
        assert rc == 0
        assert record["bits"] == "11000011"
        assert record["outages"] == [6]
        assert record["overflows"] == [1, 2]
        assert record["params"]["family"] == "sec"
        assert record["params"]["repetitions"] == 1

    def test_bits_must_satisfy_declared_family(self, capsys):
        rc, _, err = run(
            capsys,
            "simulate", "--b", "1/2", "--emax", "1",
            "--bits", "1001", "--family", "rll", "--d", "2",
        )
        assert rc == 1 and err.startswith("error:")

    def test_adversarial_refuses_feasible_model(self, capsys):
        rc, _, err = run(
            capsys,
            "simulate", "--b", "1/4", "--emax", "1",
            "--family", "rll", "--d", "2", "--adversarial",
        )
        assert rc == 1 and err.startswith("error:")

    def test_bits_required_without_adversarial(self, capsys):
        rc, _, err = run(capsys, "simulate", "--b", "1/2", "--emax", "1")
        assert rc == 1 and err.startswith("error:")

    def test_adversarial_requires_family(self, capsys):
        rc, out, err = run(capsys, "simulate", "--b", "1/2", "--emax", "1", "--adversarial")
        assert (rc, out) == (1, "")
        assert err == "error: simulate needs --bits, or --adversarial with a constraint family\n"

    def test_oversized_witness_is_refused_before_it_is_built(self, capsys):
        # 7e7 bits would take gigabytes to build and trace
        start = time.perf_counter()
        rc, out, err = run(
            capsys,
            "simulate", "--b", "3/5", "--emax", "1/2",
            "--family", "rll", "--d", "1", "--adversarial", "--reps", "35000000",
        )
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err == (
            "error: a witness of 35000000 repetitions of 2 bits is over "
            "the limit of 1048576 bits\n"
        )


class TestSweep:
    ARGS = ("sweep", "--vary", "emax", "--b", "3/5",
            "--from", "0", "--to", "3/2", "--step", "1/2")

    def test_rows_and_header(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "param,o_rll,o_swc,o_swc_method,o_sec,o_sec_method,ceiling"
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.5", "1", "1.5"]
        assert lines[1].split(",")[1:3] == ["0.000000", "0.000000"]
        assert lines[3].split(",")[1] == "0.551463"
        assert lines[3].split(",")[4] == "0.000000"
        assert all(line.endswith("0.970951") for line in lines[1:])

    def test_output_is_byte_stable(self, capsys, tmp_path):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second
        path = tmp_path / "sweep.csv"
        rc, out, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert rc == 0 and out == ""
        assert path.read_text() == first

    def test_rows_are_written_as_they_are_computed(self, capsys, monkeypatch):
        calls = []
        o_sec = outage.o_sec

        def fail_on_second_call(model):
            calls.append(model)
            if len(calls) == 2:
                raise ResourceLimitError("second row")
            return o_sec(model)

        monkeypatch.setattr(outage, "o_sec", fail_on_second_call)
        rc, out, err = run(
            capsys, "sweep", "--vary", "emax", "--b", "3/5",
            "--from", "0", "--to", "1", "--step", "1/2",
        )
        assert (rc, err) == (1, "error: second row\n")
        assert out.splitlines() == [
            "param,o_rll,o_swc,o_swc_method,o_sec,o_sec_method,ceiling",
            "0,0.000000,0.000000,exact,0.000000,exact,0.970951",
        ]

    def test_vary_b_requires_fixed_emax(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--vary", "b",
            "--from", "1/4", "--to", "1/2", "--step", "1/4",
        )
        assert rc == 1 and err.startswith("error:")

    def test_rejects_an_oversized_grid(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--vary", "emax", "--b", "3/5",
            "--from", "0", "--to", "12", "--step", "1/1000000",
        )
        assert (rc, out) == (1, "")
        assert err == "error: sweep grid has 12000001 rows, over the limit of 10000\n"

    def test_rejects_nonpositive_step(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--vary", "emax", "--b", "1/2",
            "--from", "0", "--to", "1", "--step", "0",
        )
        assert rc == 1 and err.startswith("error:")


class TestVerify:
    def test_equivalence_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "equivalence", "--max-n", "8")
        lines = out.splitlines()
        assert rc == 0
        assert all(line.startswith("ok   ") for line in lines[:-1])
        assert lines[-1].endswith("checks, 0 failed")

    def test_json_listing(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "equivalence", "--max-n", "6", "--json"
        )
        checks = json.loads(out)
        assert rc == 0
        assert checks and all(c["passed"] for c in checks)
        assert {"name", "passed", "detail"} <= set(checks[0])

    def test_all_suites_print_the_recorded_json(self, capsys):
        # a faster kernel or solve must print these bytes
        rc, out, err = run(capsys, "verify", "--suite", "all", "--json", "--max-n", "12")
        assert (rc, err) == (0, "")
        assert out == (DATA / "verify_all_max_n_12.json").read_text()

    def test_all_suites_print_the_recorded_json_at_the_default_depth(self, capsys):
        # n <= 16, the depth CI's installed script runs, past one kernel slice
        rc, out, err = run(capsys, "verify", "--suite", "all", "--json", "--max-n", "16")
        assert (rc, err) == (0, "")
        assert out == (DATA / "verify_all_max_n_16.json").read_text()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ["--suite", "counts", "--max-n", "-1"],
                "max_n must be >= 6 so that every length sweep covers a length, got -1",
            ),
            (
                ["--suite", "all", "--max-n", "5"],
                "max_n must be >= 6 so that every length sweep covers a length, got 5",
            ),
            (
                ["--suite", "counts", "--max-n", "5"],
                "max_n must be >= 6 so that every length sweep covers a length, got 5",
            ),
            (
                ["--suite", "outage", "--max-n", "1"],
                "max_n must be >= 6 so that every length sweep covers a length, got 1",
            ),
            (
                ["--suite", "equivalence", "--max-n", "0"],
                "max_n must be >= 6 so that every length sweep covers a length, got 0",
            ),
            (
                ["--suite", "all", "--max-n", "25"],
                "max_n must be <= 24, the enumeration limit, got 25",
            ),
        ],
    )
    def test_rejects_invalid_limits(self, capsys, monkeypatch, flags, message):
        def refuse(spec, n):
            raise AssertionError(f"enumerated {spec} at n={n} before refusing the limit")

        # a refused max_n is refused before any suite enumerates a length
        monkeypatch.setattr(verify, "_words", refuse)
        rc, out, err = run(capsys, "verify", *flags)
        assert (rc, out, err) == (1, "", f"error: {message}\n")


# every subcommand's flags: a new setting needs a test and a README line
SUBCOMMAND_FLAGS = {
    "capacity": "--d --family --growth --help --json --l --state-budget --t --w -h",
    "outage": "--b --emax --family --help --json --state-budget -h",
    "sweep": "--b --emax --from --help --out --state-budget --step --to --vary -h",
    "simulate": "--adversarial --b --bits --d --einit --emax --family --help --l --reps --t --w -h",
    "verify": "--help --json --max-n --suite -h",
}


class TestConfig:
    def test_every_subcommand_flag_is_pinned(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: sorted(o for a in sub._actions for o in a.option_strings)
            for name, sub in commands.choices.items()
        }
        assert flags == {name: text.split() for name, text in SUBCOMMAND_FLAGS.items()}

    def test_state_budget_flag_lowers_the_budget(self, capsys):
        rc, out, err = run(
            capsys, "capacity", "--family", "swc", "--t", "6", "--w", "3", "--state-budget", "8"
        )
        assert (rc, out) == (1, "")
        assert err == "error: window length 6 needs 2^5 states, over the budget of 8\n"

    def test_window_past_the_int64_keys_is_an_error(self, capsys):
        rc, out, err = run(
            capsys,
            "capacity", "--family", "swc", "--t", "64", "--w", "62",
            "--state-budget", str(1 << 64),
        )
        assert (rc, out) == (1, "")
        assert err == (
            "error: window length 64 is over the limit of 63: "
            "its states are keyed by int64 bit strings\n"
        )

    def test_budget_past_the_int64_keys_bounds_the_long_windows(
        self, capsys, monkeypatch, cold_caches
    ):
        # the budget covers 2^65 states, but windows from T = 64 on are
        # bounded: at b = 1/40 those have w >= 2, so no root rates them
        bounded = []

        def record(t, w):
            bounded.append(t)
            return fallback(t, w)

        fallback = outage._swc_fallback
        monkeypatch.setattr(outage, "_swc_fallback", record)
        budget = str(46116860184273879040)
        rc, out, err = run(
            capsys, "outage", "--family", "swc", "--b", "1/40", "--emax", "2",
            "--state-budget", budget,
        )
        assert (rc, out, err) == (0, "1.000000 (T=40, w=1) [lower-bound]\n", "")
        assert min(bounded) == 64

    def test_unconverged_power_iteration_is_an_error(self, capsys, monkeypatch, cold_caches):
        monkeypatch.setattr("capcomp.capacity._MAX_POWER_ITER", 2)
        rc, out, err = run(capsys, "capacity", "--family", "swc", "--t", "12", "--w", "6")
        assert (rc, out) == (1, "")
        assert err.startswith("error: power iteration for window (12, 6) did not converge")
        assert "; last bracket width " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--config", "capcomp.cfg", "capacity", "--family", "rll", "--d", "2"],
            ["capacity", "--family", "swc", "--t", "6", "--w", "4", "--growth", "--nmax", "12"],
            ["verify", "--suite", "outage", "--reps-cap", "4096"],
        ],
    )
    def test_removed_settings_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2


# per family: the flags it needs, the missing-flag error, and the params keys
# the simulate JSON reports for it
FAMILY_FLAGS = [
    ("rll", ["--d", "2"], "rll requires --d", ["d"]),
    ("swc", ["--t", "3", "--w", "1"], "swc requires --t and --w", ["t", "w"]),
    ("sec", ["--l", "3", "--w", "1"], "sec requires --l and --w", ["l", "w"]),
]


class TestFamilyBinding:
    @pytest.mark.parametrize("family,flags,message,_keys", FAMILY_FLAGS)
    def test_each_missing_flag_is_named(self, capsys, family, flags, message, _keys):
        # drop each flag (with its value) in turn
        for i in range(0, len(flags), 2):
            partial = flags[:i] + flags[i + 2:]
            for argv in (
                ["capacity", "--family", family, *partial],
                ["simulate", "--b", "3/5", "--emax", "1/2",
                 "--family", family, *partial, "--adversarial"],
            ):
                rc, out, err = run(capsys, *argv)
                assert (rc, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("family,flags,_message,keys", FAMILY_FLAGS)
    def test_adversarial_params_keys(self, capsys, family, flags, _message, keys):
        # a buffer below one draw makes every family infeasible
        rc, out, _ = run(
            capsys,
            "simulate", "--b", "3/5", "--emax", "1/2",
            "--family", family, *flags, "--adversarial", "--reps", "2",
        )
        params = json.loads(out)["params"]
        assert rc == 0
        assert list(params) == ["b", "e_max", "e_init", "family", *keys, "repetitions"]
        assert params["family"] == family
        assert [params[k] for k in keys] == [int(v) for v in flags[1::2]]

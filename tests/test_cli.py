import concurrent.futures
import dataclasses
import io
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mvladders import cli, solver
from mvladders.adders import VerifyReport
from mvladders.analysis import CSV_HEADER
from mvladders.cli import ExitStatus, compare_cpa, main, parse_design_spec


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        status = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return status, out.getvalue(), err.getvalue()


def test_design_spec_parsing():
    fa = parse_design_spec("tfa2,swing=reduced")
    assert fa.label == "TFA2[reduced,0.9V]"
    cpa = parse_design_spec("bfa1,vdd=0.45,digits=6")
    assert cpa.config.label == "6xBFA1_14T[full,0.45V]"
    with pytest.raises(Exception):
        parse_design_spec("zfa9")


def test_verify_command():
    status, out, _ = run_cli(["verify", "tfa1,swing=reduced"])
    assert status == ExitStatus.OK
    assert out.startswith("PASS")
    assert "18 vectors" in out


def test_verify_bad_spec_status():
    status, _, err = run_cli(["verify", "qfa1,swing=full"])
    assert status == ExitStatus.BAD_REQUEST
    assert "QFA1" in err


@pytest.mark.parametrize("spec", ["tfa2", "qfa1", "bfa1", "tfa2,digits=2"])
@pytest.mark.parametrize("vdd", ["nan", "inf"])
def test_verify_rejects_non_finite_vdd(spec, vdd):
    status, out, err = run_cli(["verify", f"{spec},vdd={vdd}"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "vdd must be a finite voltage" in err


@pytest.mark.parametrize(
    "spec, key",
    [
        ("tfa2,swing=full,swing=reduced", "swing"),
        ("tfa2,digits=2,digits=1", "digits"),
        ("bfa1,vdd=0.9,VDD=0.45", "vdd"),
    ],
)
def test_verify_refuses_a_repeated_spec_key(spec, key):
    status, out, err = run_cli(["verify", spec])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert f"design-spec key {key!r} given twice" in err


def test_verify_refuses_oversize_request(monkeypatch):
    # 2 * 3^14 vectors over 186 nets: a ~14 GB value table, refused before
    # any column is built
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(solver, "solve_dc_batch", no_solve)
    tracemalloc.start()
    try:
        status, out, err = run_cli(["verify", "tfa2,digits=7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "9,565,938 vectors" in err and "4,194,304 vectors" in err
    assert peak < 16 * 2**20


def test_verify_refuses_a_64_digit_cpa_at_once():
    status, out, err = run_cli(["verify", "bfa1,digits=64"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert err.endswith(" vectors exceeds the bound of 4,194,304 vectors\n")


@pytest.mark.parametrize("command", ["verify", "bench", "sweep"])
def test_oversize_spec_is_refused_before_it_is_built(monkeypatch, command):
    # 2 x 2^18000 vectors: more decimal digits than int-to-str prints
    def no_build(*args, **kwargs):
        raise AssertionError("build_cpa reached")

    monkeypatch.setattr(cli, "build_cpa", no_build)
    status, out, err = run_cli([command, "bfa1,digits=9000"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "4,194,304" in err and "integer string conversion" not in err


def test_bench_csv_and_label():
    status, out, _ = run_cli(["bench", "bfa2", "--cl", "2"])
    assert status == ExitStatus.OK
    lines = out.splitlines()
    assert lines[0].startswith("# calibrated-model values")
    assert lines[1] == CSV_HEADER
    assert lines[2].startswith("BFA2_28T[full,0.9V],2,1,0.9,0.9,2,")


def test_bench_deterministic_bytes():
    s1, out1, _ = run_cli(["bench", "tfa1", "--cl", "1"])
    s2, out2, _ = run_cli(["bench", "tfa1", "--cl", "1"])
    assert s1 == s2 == ExitStatus.OK
    assert out1 == out2


def test_sweep_reports_fits():
    status, out, _ = run_cli(["sweep", "bfa1", "--cl", "0.25,4"])
    assert status == ExitStatus.OK
    assert out.count("# fit") == 4
    assert "r2=" in out


@pytest.mark.parametrize("cl", ["-5", "nan", "inf"])
def test_bench_rejects_bad_load(cl):
    status, out, err = run_cli(["bench", "bfa1", "--cl", cl])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "--cl must be a finite load >= 0 fF" in err


@pytest.mark.parametrize("cl", ["0.5,-1", "1,nan", "inf", ""])
def test_sweep_rejects_bad_load(cl):
    status, out, err = run_cli(["sweep", "bfa1", f"--cl={cl}"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "--cl" in err


@pytest.mark.parametrize("argv", [["bench", "--cl", "1e200"], ["bench", "--cl", "1e308"],
                                  ["sweep", "--cl", "1,1e200"], ["sweep", "--cl", "1e308,2"]])
def test_overflowing_figure_is_refused(argv):
    # power * delay overflows to inf: refused with the design, load and figure
    command, *options = argv
    status, out, err = run_cli([command, "tfa2", *options])
    assert status == ExitStatus.SOLVER_TROUBLE
    assert out == ""
    assert err.startswith("pdp_j of TFA2[full,0.9V] at 1e+")
    assert err.endswith(" fF is not finite\n")


@pytest.mark.parametrize("spec", ["bfa1,swing=reduced", "bfa3,swing=reduced,vdd=0.45,digits=2"])
def test_binary_reduced_swing_spec_is_refused(spec):
    status, out, err = run_cli(["bench", spec])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "binary adders have a full-swing carry" in err


def test_compare_cpa_compiles_each_design_once(monkeypatch):
    # compare_cpa may run its jobs in worker processes, out of this
    # counter's reach, so each design's job runs here in turn.  Counted
    # where every compile ends, whichever module asks for it.
    compiled = []
    init = solver.CompiledNetlist.__init__

    def counted(self, netlist, *args, **kwargs):
        compiled.append(netlist)
        init(self, netlist, *args, **kwargs)

    monkeypatch.setattr(solver.CompiledNetlist, "__init__", counted)
    for k, cfg in enumerate(cli._COMPARE_CONFIGS):
        report, row = cli._compare_design(cfg, 2.0)
        assert report.ok and row.design == cfg.label
        assert len(compiled) == k + 1
    assert len(compiled) == len({id(nl) for nl in compiled}) == 6


def _use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_compare_cpa_rows_do_not_depend_on_worker_count(monkeypatch):
    results = {}
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        rows, checks = compare_cpa(2.0)
        assert multiprocessing.active_children() == []
        results[cpus] = [dataclasses.astuple(row) for row in rows], checks
    assert results[1] == results[2]
    assert len(results[1][0]) == 6


def test_compare_cpa_does_not_fork_a_threaded_process(monkeypatch):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # any pool fails
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        rows, _ = compare_cpa(2.0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(rows) == 6


def _dies(cfg, cl_ff):
    os._exit(1)


def _fails_verification(cfg, cl_ff):
    return VerifyReport(cfg.label, 10, 2, 1, 0, 0, ()), None


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="without fork _dies would run in this process",
)
def test_compare_cpa_reports_a_dead_worker(monkeypatch, tmp_path):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_compare_design", _dies)  # forked workers inherit it
    assert threading.active_count() == 1  # else _dies would run in this process
    status, out, err = run_cli(["compare-cpa", "--out", str(tmp_path / "report")])
    assert status == ExitStatus.SOLVER_TROUBLE
    assert out == ""
    assert err.startswith("compare-cpa: a worker process died")
    assert "Traceback" not in err
    assert not (tmp_path / "report").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_cpa_reports_the_first_failed_design(monkeypatch, tmp_path, cpus):
    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_compare_design", _fails_verification)
    status, out, err = run_cli(["compare-cpa", "--out", str(tmp_path / "report")])
    assert status == ExitStatus.VERIFY_FAILED
    assert out == ""
    assert err == "verification failed for 6xBFA1_14T[full,0.9V]: 2 failures, 1 conflicts\n"
    assert not (tmp_path / "report").exists()
    assert multiprocessing.active_children() == []


def test_compare_cpa_refuses_an_out_path_that_is_a_file(tmp_path):
    target = tmp_path / "report"
    target.write_text("keep\n")
    status, out, err = run_cli(["compare-cpa", "--out", str(target)])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert err.startswith(f"cannot write report to {target}: ")
    assert target.read_text() == "keep\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cl", ["1", "2,2"])
def test_sweep_single_load_reports_no_fit(cl):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(["sweep", "bfa1", "--cl", cl])
    assert status == ExitStatus.OK
    assert "# fit" not in out
    assert out.count("BFA1_14T[full,0.9V],2,1,") == len(cl.split(","))
    assert "at least two distinct loads" in err


def test_dump_roundtrip(tmp_path):
    status, out, _ = run_cli(["dump", "tfa2,swing=reduced"])
    assert status == ExitStatus.OK
    assert "INPUT A 3" in out
    assert "SUBCKT" not in out  # single stage dumps flat
    status, out_cpa, _ = run_cli(["dump", "tfa2,digits=4"])
    assert "SUBCKT tfa2_stage" in out_cpa
    assert out_cpa.count("INSTANCE tfa2_stage") == 4


def test_run_inverter(tmp_path):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, out, _ = run_cli(["run", str(f), "--inputs", "a=0"])
    assert status == ExitStatus.OK
    assert "y = 0.9 V (digit 1)" in out


@pytest.mark.parametrize("assignment", ["a=1,a=0", "a=0, a =0.9V"])
def test_run_refuses_a_repeated_input(tmp_path, assignment):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, out, err = run_cli(["run", str(f), "--inputs", assignment])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "input 'a' assigned twice" in err


def test_run_netlist_without_inputs(tmp_path):
    f = tmp_path / "tie.net"
    f.write_text("SUPPLY vdd 0.9\nSUPPLY gnd 0\nOUTPUT y 2\nDEVICE P n=19 g=gnd s=vdd d=y\n")
    status, out, _ = run_cli(["run", str(f)])
    assert status == ExitStatus.OK
    assert "y = 0.9 V (digit 1)" in out


def test_run_missing_input(tmp_path):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, _, err = run_cli(["run", str(f)])
    assert status == ExitStatus.BAD_REQUEST
    assert "unassigned" in err


def test_run_conflicted_fixture(tmp_path):
    f = tmp_path / "clash.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE N n=37 g=vdd s=gnd d=vdd\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, _, err = run_cli(["run", str(f), "--inputs", "a=0"])
    assert status == ExitStatus.SOLVER_TROUBLE
    assert "conflict" in err


def test_run_reports_a_netlist_without_a_fixed_point(tmp_path):
    # y gates its own pulldown against an always-on pullup, so it never settles
    f = tmp_path / "selfgate.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nOUTPUT y 2\n"
        "DEVICE P n=19 g=gnd s=vdd d=y\nDEVICE N n=19 g=y s=gnd d=y\n"
    )
    status, out, err = run_cli(["run", str(f)])
    assert status == ExitStatus.SOLVER_TROUBLE
    assert out == ""
    assert err == "'netlist' did not reach a conduction fixed point within 6 sweeps\n"
    assert "Traceback" not in err


def test_run_parse_error_status(tmp_path):
    f = tmp_path / "bad.net"
    f.write_text("FLUX CAPACITOR 1.21\n")
    status, _, err = run_cli(["run", str(f), "--inputs", ""])
    assert status == ExitStatus.BAD_REQUEST
    assert "unknown directive" in err


def test_run_refuses_a_file_that_is_not_utf8(tmp_path):
    f = tmp_path / "bad.net"
    f.write_bytes(b"\xff\xfe\x00bad")
    status, out, err = run_cli(["run", str(f)])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert err.startswith(f"cannot read {f}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "supplies, message",
    [
        ("SUPPLY gnd 0\n", "no supply above 0 V"),
        ("SUPPLY vneg -0.45\nSUPPLY gnd 0\n", "no supply above 0 V"),
        ("SUPPLY gnd nan\n", "line 1, column 1: supply net 'gnd' needs a finite voltage"),
        ("SUPPLY gnd 0\nSUPPLY vdd inf\n", "line 2, column 1: supply net 'vdd' needs a finite"),
    ],
)
def test_run_rejects_netlist_without_positive_finite_supply(tmp_path, supplies, message):
    f = tmp_path / "nosupply.net"
    f.write_text(supplies + "INPUT a 2\nOUTPUT y 2\nDEVICE N n=19 g=a s=gnd d=y\n")
    status, out, err = run_cli(["run", str(f), "--inputs", "a=0"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert message in err


def test_run_volt_suffix_assignment(tmp_path):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, out, _ = run_cli(["run", str(f), "--inputs", "a=0.25V"])
    assert status == ExitStatus.OK
    assert "y = 0.9 V" in out  # below the n=19 threshold: pullup only


@pytest.mark.parametrize("volts", ["nanV", "infV", "-infV"])
def test_run_rejects_non_finite_input_voltage(tmp_path, volts):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, out, err = run_cli(["run", str(f), "--inputs", f"a={volts}"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert "'a' needs a finite voltage" in err


@pytest.mark.parametrize("level", ["x", "V", "1.5", "5", "-1", "1e400V"])
def test_run_names_the_input_and_its_forms_for_a_bad_level(tmp_path, level):
    f = tmp_path / "inv.net"
    f.write_text(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
    )
    status, out, err = run_cli(["run", str(f), "--inputs", f"a={level}"])
    assert status == ExitStatus.BAD_REQUEST
    assert out == ""
    assert err == (
        "input 'a' needs a finite voltage with a V suffix or a digit from 0 to 1, "
        f"got {level!r}\n"
    )


def test_run_reduced_carry_scale_annotation(tmp_path):
    import subprocess, sys

    status, out, _ = run_cli(["dump", "tfa1,swing=reduced"])
    f = tmp_path / "tfa1r.net"
    f.write_text(out)
    status, out, _ = run_cli(["run", str(f), "--inputs", "A=2,B=2,Cin=0.45V"])
    assert status == ExitStatus.OK
    assert "Sum = 0.9 V (digit 2)" in out
    assert "Cout = 0.45 V (digit 1 at the 0.45 V scale)" in out


_INVERTER = (
    "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
    "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
)
# q and qb hold each other: with both pass devices off they float
_LATCH = (
    "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nINPUT en 2\nOUTPUT q 2\nNET qb\n"
    "DEVICE P n=19 g=q s=vdd d=qb\nDEVICE N n=19 g=q s=gnd d=qb\n"
    "DEVICE P n=19 g=qb s=vdd d=q\nDEVICE N n=19 g=qb s=gnd d=q\n"
    "DEVICE N n=19 g=en s=a d=q\n"
)
# a = 1 shorts vdd to gnd
_CLASH = (
    "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\n"
    "DEVICE N n=19 g=a s=gnd d=vdd\nDEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
)


@pytest.fixture(scope="module")
def run_netlists(tmp_path_factory):
    """Netlist files for ``run`` and their input nets: an inverter, a latch,
    a supply short and a dumped (hierarchical) 2-digit TFA1 CPA."""
    folder = tmp_path_factory.mktemp("fuzz")
    _, cpa, _ = run_cli(["dump", "tfa1,digits=2"])
    files = {
        "inv.net": (_INVERTER, ["a"]),
        "latch.net": (_LATCH, ["a", "en"]),
        "clash.net": (_CLASH, ["a"]),
        "cpa.net": (cpa, ["A0", "A1", "B0", "B1", "C0"]),
    }
    for name, (text, _) in files.items():
        (folder / name).write_text(text)
    return [(str(folder / name), inputs) for name, (_, inputs) in files.items()]


_NUMBERS = st.sampled_from(
    ["0", "0.5", "2", "-1", "1e-300", "1e200", "1e308", "nan", "inf", "-inf", "x", ""]
) | st.floats(0, 50).map(repr)


@st.composite
def _design_specs(draw):
    parts = [draw(st.sampled_from(["tfa1", "tfa2", "qfa1", "qfa2", "bfa1", "bfa2", "bfa3", "zfa9"]))]
    options = {
        "swing": st.sampled_from(["reduced", "full", "half"]),
        "vdd": st.sampled_from(["0.9", "0.45", "0", "-0.9", "1e308", "nan", "inf", "x"]),
        "digits": st.sampled_from(["0", "1", "2", "-1", "2.5", "x"]),
    }
    for key, values in options.items():
        if draw(st.booleans()):
            parts.append(f"{key}={draw(values)}")
    return ",".join(parts)


@st.composite
def _cli_argvs(draw, netlists):
    command = draw(st.sampled_from(["verify", "bench", "sweep", "run"]))
    if command == "run":
        path, inputs = draw(st.sampled_from(netlists))
        levels = st.sampled_from(
            ["0", "1"] * 6 + ["2", "3", "-1", "0.45V", "1e400V", "nanV", "x", ""]
        )
        # every input, bar an occasional one left out, and now and then a stray
        items = [(name, draw(levels)) for name in inputs if draw(st.integers(0, 9))]
        if not draw(st.integers(0, 4)):
            items.append((draw(st.sampled_from(["zz", *inputs])), draw(levels)))
        assignment = ",".join(f"{name}={level}" for name, level in items)
        return ["run", path, f"--inputs={assignment}"]
    argv = [command, draw(_design_specs())]
    if command == "bench" and draw(st.booleans()):
        argv.append(f"--cl={draw(_NUMBERS)}")
    if command == "sweep" and draw(st.booleans()):
        separator = draw(st.sampled_from([",", " "]))
        argv.append(f"--cl={separator.join(draw(st.lists(_NUMBERS, max_size=3)))}")
    return argv


@settings(max_examples=100)
@given(data=st.data())
def test_cli_fuzz_gives_documented_statuses_and_finite_csv(run_netlists, data):
    argv = data.draw(_cli_argvs(run_netlists))
    try:
        status, out, err = run_cli(argv)
    except SystemExit as exc:  # argparse refuses malformed options itself
        status, out, err = exc.code, "", ""
    assert status in {0, 1, 2, 3}, argv
    assert "Traceback" not in err, argv
    lines = out.splitlines()
    if CSV_HEADER in lines:
        n_fields = len(CSV_HEADER.split(","))
        for row in lines[lines.index(CSV_HEADER) + 1 :]:
            if row.startswith("#"):
                break
            # the design label holds commas of its own; the rest are numbers
            for field in row.rsplit(",", n_fields - 1)[1:]:
                assert math.isfinite(float(field)), (argv, row)

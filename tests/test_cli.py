import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from numonoid import cli as cli_module
from numonoid import core, presentations, shifted
from numonoid import (
    BudgetExceeded,
    NumericalMonoid,
    ShiftedFamily,
    VerificationFailed,
    betti_elements,
    catenary_of_element,
    clear_caches,
    delta_set_of_element,
    factorization_graph,
    make_presentation,
    minimal_presentation,
    monoid_at,
    monotone_equal_catenary,
    tame_degree,
)


def test_apery(cli):
    assert cli("apery", "--gens", "6,9,20") == (0, "0 49 20 9 40 29\n")


def test_member(cli):
    assert cli("member", "--gens", "6,9,20", "--element", "24") == (0, "yes\n")
    assert cli("member", "--gens", "6,9,20", "--element", "43") == (0, "no\n")
    code, _ = cli("member", "--gens", "6,9,20", "--element", "-1")
    assert code == 1


def test_factorizations(cli):
    assert cli("factorizations", "--gens", "6,9,20", "--element", "18") == (
        0,
        "0,2,0\n3,0,0\n",
    )


def test_factorizations_cap_exceeded_is_exit_2(cli):
    code, out = cli(
        "factorizations", "--gens", "6,9,20", "--element", "60", "--cap", "2"
    )
    assert code == 2 and out == ""


def test_betti(cli):
    assert cli("betti", "--gens", "6,9,20") == (0, "18\n60\n")


def test_apery_refuses_an_oversized_table(cli, monkeypatch):
    # a table of 10^9 entries would take gigabytes; it is refused before
    # anything is allocated.  The guard is first seen to fire on a small
    # table under a lowered cap, so the large call never runs without it.
    clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(core, "DEFAULT_CAP", 5)
        assert cli("apery", "--gens", "6,9,20") == (2, "")
    tracemalloc.start()
    try:
        result = cli("apery", "--gens", "1000000000,1000000006,1000000009,1000000020")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "")
    assert peak < 10**6


def test_a_lift_past_the_kernels_budget_is_refused_at_once(cli, capsys):
    # offsets (1,4000) at n = 10^9 + 1 have the base shift 16000001, whose
    # packed scan exceeds DEFAULT_CAP residues: exit 2 before any table
    tracemalloc.start()
    try:
        result = cli("betti", "--gens", "1000000001,1000000002,1000004001")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "")
    assert "exceeds the kernel's budget" in capsys.readouterr().err
    assert peak < 10**6


def test_betti_and_all_presentations_take_the_lift(cli, monkeypatch):
    # at n = 10^6 + 1 the direct scan takes seconds; both commands scan only
    # the base shift 401 and lift from there
    scanned = []
    real = presentations._betti_impl

    def counting(M, deadline, *rest):
        scanned.append(M.generators[0])
        return real(M, deadline, *rest)

    monkeypatch.setattr(presentations, "_betti_impl", counting)
    gens = "1000001,1000007,1000010,1000021"
    clear_caches()
    code, out = cli("betti", "--gens", gens)
    assert code == 0
    assert out.split() == [
        "3000021", "7000067", "8000080", "50003050003", "50003050009", "50003050042",
    ]
    clear_caches()
    code, out = cli("minpres", "--gens", gens, "--all", "--format", "text")
    assert code == 0 and out.startswith("count 2\n")
    assert scanned == [401, 401]
    code, out = cli("minpres", "--gens", gens, "--all")
    assert code == 0
    code, single = cli("minpres", "--gens", gens)
    assert code == 0
    assert json.loads(out)["presentations"][0] == json.loads(single)["relations"]
    assert scanned == [401, 401]


def test_minpres_json_schema(cli):
    code, out = cli("minpres", "--gens", "6,9,20")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "generators": [6, 9, 20],
        "betti_elements": [18, 60],
        "relations": [
            {"betti": 18, "left": [3, 0, 0], "right": [0, 2, 0]},
            {"betti": 60, "left": [1, 6, 0], "right": [0, 0, 3]},
        ],
    }


def test_minpres_text_format(cli):
    assert cli("minpres", "--gens", "6,9,20", "--format", "text") == (
        0,
        "18: 3,0,0 ~ 0,2,0\n60: 1,6,0 ~ 0,0,3\n",
    )


def test_minpres_strategies_agree_byte_for_byte(cli):
    # 450 > 20^2 + 20, so the CLI lifts from the base shift; its bytes are
    # those of the direct scan's presentation
    gens = "450,456,459,470"
    clear_caches()
    run = cli("minpres", "--gens", gens)
    direct = minimal_presentation(NumericalMonoid((450, 456, 459, 470)))
    assert run == (0, json.dumps(direct.to_json_dict(), indent=2) + "\n")
    # and a repeat run is byte-identical
    assert cli("minpres", "--gens", gens) == run


def test_minpres_paranoid(cli):
    code, out = cli("minpres", "--gens", "450,456,459,470", "--paranoid")
    assert code == 0
    assert len(json.loads(out)["relations"]) == 6


def test_minpres_all(cli):
    code, out = cli("minpres", "--gens", "6,9,20", "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert len(payload["presentations"]) == 4
    assert all(len(p) == 2 for p in payload["presentations"])
    code, out = cli("minpres", "--gens", "6,9,20", "--all", "--format", "text")
    assert code == 0
    assert out.startswith("count 4\n")


def test_minpres_all_paranoid_checks_each_presentation(cli, monkeypatch):
    real_check = cli_module.congruence_closure_check
    checked = []

    def counting(M, relations, bound):
        checked.append(len(relations))
        return real_check(M, relations, bound)

    monkeypatch.setattr(cli_module, "congruence_closure_check", counting)
    code, out = cli("minpres", "--gens", "6,9,20", "--all", "--paranoid")
    assert code == 0 and json.loads(out)["count"] == 4
    assert checked == [2, 2, 2, 2]
    # a listed presentation that misses a Betti element is caught, not printed
    real_all = cli_module.all_minimal_presentations

    def dropping_the_last_relation(M):
        count, items = real_all(M)
        last = items[-1]
        return count, items[:-1] + [
            make_presentation(M, last.relations[:-1])
        ]

    monkeypatch.setattr(cli_module, "all_minimal_presentations",
                        dropping_the_last_relation)
    code, out = cli("minpres", "--gens", "6,9,20", "--all", "--paranoid")
    assert code == 3
    assert out.startswith("fail at 60: ")


def test_minpres_shift_needs_a_family(cli):
    # a single generator other than 1 is not a numerical monoid
    code, _ = cli("minpres", "--gens", "7")
    assert code == 1
    # the lift-or-scan choice is the router's, not an option
    code, out = cli("minpres", "--gens", "6,9,20", "--strategy", "direct")
    assert (code, out) == (1, "")


def test_invariant_element_payloads(cli):
    code, out = cli(
        "invariant", "--gens", "6,9,20", "--which", "catenary", "--element", "60"
    )
    assert (code, json.loads(out)) == (
        0,
        {"which": "catenary", "element": 60, "value": 7},
    )
    code, out = cli(
        "invariant", "--gens", "6,9,20", "--which", "delta", "--element", "60"
    )
    assert json.loads(out) == {"which": "delta", "element": 60, "values": [1, 4]}
    M = NumericalMonoid((6, 9, 20))
    mon, eq = monotone_equal_catenary(M, 60)
    for which, value in (
        ("tame", tame_degree(M, 60)),
        ("mon-catenary", mon),
        ("eq-catenary", eq),
    ):
        code, out = cli(
            "invariant", "--gens", "6,9,20", "--which", which, "--element", "60"
        )
        assert (code, json.loads(out)) == (
            0,
            {"which": which, "element": 60, "value": value},
        )


def test_invariant_monoid_payloads(cli):
    # family member above the threshold: exact without any window
    code, out = cli("invariant", "--gens", "401,407,410,421", "--which", "catenary")
    assert (code, json.loads(out)) == (
        0,
        {"which": "catenary", "value": 23, "exact": True},
    )
    code, out = cli("invariant", "--gens", "450,456,459,470", "--which", "delta")
    assert (code, json.loads(out)) == (
        0,
        {"which": "delta", "values": [1], "exact": True, "window": None},
    )
    code, out = cli(
        "invariant", "--gens", "450,456,459,470", "--which", "eq-catenary"
    )
    assert (code, json.loads(out)) == (
        0,
        {"which": "eq-catenary", "value": 8, "exact": True, "window": None},
    )
    code, out = cli(
        "invariant", "--gens", "6,9,20", "--which", "mon-catenary", "--window", "200"
    )
    assert json.loads(out) == {
        "which": "mon-catenary",
        "value": 14,
        "exact": False,
        "window": 200,
    }
    code, out = cli(
        "invariant", "--gens", "6,9,20", "--which", "tame", "--window", "200"
    )
    assert json.loads(out) == {
        "which": "tame",
        "value": 10,
        "attained_at": 60,
        "window": 200,
    }


def test_survey_stdout_rows(cli):
    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "401",
        "--which", "betti", "--out", "-",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,metric,value"
    values = [int(line.split(",")[2]) for line in lines[1:]]
    assert values == betti_elements(NumericalMonoid((401, 407, 410, 421)))

    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "401",
        "--which", "catenary", "--out", "-",
    )
    assert out == "n,metric,value\n401,catenary,23\n"

    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "401",
        "--which", "delta", "--out", "-",
    )
    assert out == "n,metric,value\n401,delta,1\n"


def test_survey_rows_match_each_member(cli):
    # n = 24..60 straddles the threshold 25 and reaches lifted shifts (n > 30)
    F = ShiftedFamily((3, 5))
    shifts = range(24, 61)
    rows = {}
    for which in ("catenary", "delta"):
        code, out = cli(
            "survey", "--r", "3,5", "--n-from", "24", "--n-to", "60",
            "--which", which, "--out", "-",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            n, metric, value = line.split(",")
            assert metric == which
            rows.setdefault((which, int(n)), set()).add(int(value))
    for n in shifts:
        M = monoid_at(F, n).monoid
        betti = betti_elements(M)
        catenary = max(catenary_of_element(M, beta) for beta in betti)
        deltas = set().union(*(delta_set_of_element(M, beta) for beta in betti))
        assert rows[("catenary", n)] == {catenary}, n
        assert rows[("delta", n)] == deltas, n
    assert len(rows) == 2 * len(shifts)


def test_survey_failures_are_named_or_raised(cli, monkeypatch):
    real = cli_module._betti_graphs

    def failing(exc):
        def graphs(M, deadline):
            if M.generators[0] == 402:
                raise exc("injected")
            return real(M, deadline)
        return graphs

    argv = ("survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "403",
            "--which", "betti", "--out", "-")
    monkeypatch.setattr(cli_module, "_betti_graphs", failing(BudgetExceeded))
    code, out = cli(*argv)
    assert code == 0
    assert "402,error:BudgetExceeded,0" in out.splitlines()
    assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"401", "402", "403"}
    # a failed verification is a bug, not a row
    monkeypatch.setattr(cli_module, "_betti_graphs", failing(VerificationFailed))
    assert cli(*argv) == (3, "")


def test_survey_minpres_size(cli):
    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "417", "--n-to", "420",
        "--which", "minpres-size", "--out", "-",
    )
    assert code == 0
    rows = dict(
        (int(line.split(",")[0]), int(line.split(",")[2]))
        for line in out.splitlines()[1:]
    )
    assert rows[417] == 8 and rows[420] == 4


@pytest.mark.parametrize(
    "r, n_from, n_to",
    [((3, 5), 24, 60), ((4, 7, 11, 13), 176, 200)],
    ids=["3,5", "4,7,11,13"],
)
def test_survey_rows_past_the_lift_threshold_match_the_scan(
    cli, monkeypatch, r, n_from, n_to
):
    # past r_k^2 + r_k the betti and minpres-size rows read the router's
    # lifted graphs; each row must equal the direct scan at its shift
    family = ShiftedFamily(r)
    assert n_from <= family.threshold + family.step < n_to
    scanned = []
    real = presentations._betti_impl

    def counting(M, deadline, *rest):
        scanned.append(M.generators[0])
        return real(M, deadline, *rest)

    rows = {}
    clear_caches()
    with monkeypatch.context() as patched:
        patched.setattr(presentations, "_betti_impl", counting)
        for which in ("betti", "minpres-size"):
            code, out = cli(
                "survey", "--r", ",".join(map(str, r)), "--n-from", str(n_from),
                "--n-to", str(n_to), "--which", which, "--out", "-",
            )
            assert code == 0
            for line in out.splitlines()[1:]:
                n, metric, value = line.split(",")
                rows.setdefault((metric, int(n)), []).append(int(value))
    # the shifts past the threshold scanned nothing at the target
    assert max(scanned) <= family.threshold + family.step
    shifts = range(n_from, n_to + 1)
    assert len(rows) == 2 * len(shifts)
    for n in shifts:
        M = monoid_at(family, n).monoid
        assert rows[("betti", n)] == betti_elements(M), n
        assert rows[("minpres-size", n)] == [len(minimal_presentation(M).relations)], n


def test_betti_timeout_is_exit_2(cli):
    # a zero budget runs out in the scan at a small shift, in the base scan
    # of a lift, and, with that base memoized, in the verification of a
    # target not yet verified in the same residue class; a verified lift is
    # memoized, and answers whatever the budget
    clear_caches()
    assert cli("betti", "--gens", "6,9,20", "--timeout-secs", "0") == (2, "")
    gens = "1000001,1000007,1000010,1000021"
    assert cli("betti", "--gens", gens, "--timeout-secs", "0") == (2, "")
    code, out = cli("betti", "--gens", gens)
    assert code == 0 and out.startswith("3000021\n")
    unverified = "1000021,1000027,1000030,1000041"
    assert cli("betti", "--gens", unverified, "--timeout-secs", "0") == (2, "")
    assert cli("betti", "--gens", gens, "--timeout-secs", "0") == (0, out)
    for timeout in ("-5", "nan"):
        assert cli("betti", "--gens", gens, "--timeout-secs", timeout) == (1, "")


def test_survey_file_output_and_jobs_determinism(cli, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, jobs in zip(paths, ("1", "2")):
        code, out = cli(
            "survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "407",
            "--which", "betti", "--out", str(path), "--jobs", jobs,
        )
        assert code == 0 and out == ""
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a.startswith(b"n,metric,value\n")


def test_survey_refuses_an_unwritable_out_before_any_row(cli, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli_module, "_survey_rows",
                        lambda *args: calls.append(args) or [])
    assert cli("survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "700",
               "--which", "catenary",
               "--out", str(tmp_path / "missing" / "x.csv")) == (1, "")
    assert calls == []


def test_survey_empty_range_writes_header_only(cli):
    code, out = cli(
        "survey", "--r", "6,9,20", "--n-from", "5", "--n-to", "4",
        "--which", "betti", "--out", "-",
    )
    assert (code, out) == (0, "n,metric,value\n")


def test_survey_into_a_reader_that_closes_early_exits_quietly(tmp_path):
    # the survey writes about 200 kB, more than a pipe holds, so its writes
    # fail with EPIPE once the reader has closed after two lines
    src = Path(cli_module.__file__).resolve().parents[1]
    err = tmp_path / "stderr"
    with open(err, "wb") as err_fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "numonoid.cli", "survey", "--r", "6,9,20",
             "--n-from", "1000", "--n-to", "3000", "--which", "betti",
             "--out", "-"],
            stdout=subprocess.PIPE, stderr=err_fh,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert head == [b"n,metric,value\n", b"1000,betti,3018\n"]
    assert b"Traceback" not in err.read_bytes()
    assert code == 141


def test_survey_records_a_refused_member_check_as_a_row(cli):
    # the minimality check of <10000001, 10000002, 30000001> needs an Apery
    # table past DEFAULT_CAP; its refusal is the row's error, not the exit
    clear_caches()
    tracemalloc.start()
    try:
        result = cli(
            "survey", "--r", "1,20000000", "--n-from", "10000001",
            "--n-to", "10000001", "--which", "betti", "--out", "-",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "n,metric,value\n10000001,error:BudgetExceeded,0\n")
    assert peak < 10**6


def test_survey_skips_degenerate_members(cli):
    code, out = cli(
        "survey", "--r", "2,4", "--n-from", "2", "--n-to", "2",
        "--which", "betti", "--out", "-",
    )
    assert (code, out) == (0, "n,metric,value\n2,skip,0\n")


def test_bench_agreement(cli):
    code, out = cli("bench", "--r", "6,9,20", "--n", "450", "--repeats", "1")
    assert code == 0
    assert "accelerated_ms" in out and "equal yes" in out


def test_bench_verifies_the_lift_on_every_repeat(cli, monkeypatch):
    # each timed run starts from cleared caches, so none of the three reads
    # a lift verified by the one before; each builds the Betti element of
    # M_1000 with a length gap, and carries the three single-length ones
    # over from the base scan
    built = []
    real = shifted._graph_of

    def counted(M, a, deadline, memo):
        built.append(a)
        return real(M, a, deadline, memo)

    monkeypatch.setattr(shifted, "_graph_of", counted)
    code, out = cli("bench", "--r", "6,9,20", "--n", "1000", "--repeats", "3")
    assert code == 0 and out.endswith("equal yes\n")
    M = monoid_at(ShiftedFamily((6, 9, 20)), 1000).monoid
    gapped = [
        b
        for b in betti_elements(M)
        if len({sum(z) for z in factorization_graph(M, b).vertices}) > 1
    ]
    assert gapped == [51000] and built == 3 * gapped


def test_minpres_timeout_is_exit_2(cli, monkeypatch):
    # with the library's clock past every deadline, minpres runs out in the
    # scan at a small shift and in the base scan of a lift; --all takes no
    # deadline and answers
    clear_caches()
    monkeypatch.setattr(core, "time", SimpleNamespace(monotonic=lambda: math.inf))
    assert cli("minpres", "--gens", "6,9,20") == (2, "")
    gens = "1000001,1000007,1000010,1000021"
    assert cli("minpres", "--gens", gens, "--timeout-secs", "3600") == (2, "")
    assert cli("minpres", "--gens", gens, "--paranoid") == (2, "")
    code, out = cli("minpres", "--gens", "6,9,20", "--all", "--format", "text")
    assert code == 0 and out.startswith("count 4\n")
    for timeout in ("-5", "nan"):
        assert cli("minpres", "--gens", gens, "--timeout-secs", timeout) == (1, "")


def test_bench_timeout_marker(cli, monkeypatch):
    # a direct leg out of budget is reported, not an error
    def out_of_budget(M, *, deadline):
        raise BudgetExceeded("wall-clock deadline exceeded")

    monkeypatch.setattr(cli_module, "minimal_presentation", out_of_budget)
    code, out = cli("bench", "--r", "6,9,20", "--n", "450", "--repeats", "1")
    assert code == 0
    assert "direct_ms timeout" in out and "equal n/a" in out


@pytest.mark.parametrize("n", [450, 410])
def test_bench_budget_bounds_the_accelerated_leg(cli, n):
    # the router lifts at 450 and scans at 410; both honour the budget
    assert cli(
        "bench", "--r", "6,9,20", "--n", str(n), "--repeats", "1",
        "--timeout-secs", "1e-06",
    ) == (2, "")


def test_bench_disagreement_is_exit_3(cli, monkeypatch):
    accelerated = cli_module.accelerated_minimal_presentation

    def dropping(F, n, *, deadline):
        pres = accelerated(F, n, deadline=deadline)
        return make_presentation(pres.monoid, pres.relations[1:])

    monkeypatch.setattr(cli_module, "accelerated_minimal_presentation", dropping)
    code, out = cli("bench", "--r", "6,9,20", "--n", "450", "--repeats", "1")
    assert code == 3
    assert out.endswith("equal no\n")


def test_verify_round_trip(cli, tmp_path):
    path = tmp_path / "pres.json"
    code, out = cli("minpres", "--gens", "6,9,20")
    path.write_text(out)
    code, out = cli("verify", "--gens", "6,9,20", "--presentation", str(path))
    assert code == 0
    assert out.startswith("ok window=")
    code, out = cli(
        "verify", "--gens", "6,9,20", "--presentation", str(path),
        "--bound", "100",
    )
    assert (code, out) == (0, "ok window=100 relations=2\n")


def test_verify_detects_tampering(cli, tmp_path):
    path = tmp_path / "pres.json"
    _, out = cli("minpres", "--gens", "6,9,20")
    payload = json.loads(out)
    del payload["relations"][1]  # drop the relation at 60
    path.write_text(json.dumps(payload))
    code, out = cli("verify", "--gens", "6,9,20", "--presentation", str(path))
    assert code == 3
    assert out.startswith("fail at 60:")


def test_verify_input_validation(cli, tmp_path):
    path = tmp_path / "pres.json"
    _, out = cli("minpres", "--gens", "6,9,20")
    path.write_text(out)
    code, _ = cli("verify", "--gens", "6,9,21", "--presentation", str(path))
    assert code == 1
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(tmp_path / "no.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(bad))
    assert code == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"generators": [6, 9, 20], "relations": [{"left": [3, 0, 0]}]}))
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(malformed))
    assert code == 1
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(not_an_object))
    assert code == 1
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"generators": [6, 9, 20], "relations": [{"left": [1.5, 0, 0], "right": [0, 1, 0]}]}))
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(fractional))
    assert code == 1
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"generators": [6, 9, 20], "relations": [
        {"left": [3, 0, 0], "right": [0, 2, False]},
        {"left": [1, 6, 0], "right": [0, 0, 3]},
    ]}))
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(boolean))
    assert code == 1
    scalar_generators = tmp_path / "scalar.json"
    scalar_generators.write_text(json.dumps({"generators": 5, "relations": []}))
    code, _ = cli("verify", "--gens", "6,9,20", "--presentation", str(scalar_generators))
    assert code == 1


def _tampered_presentation(cli, tmp_path, edit, gens="6,9,20"):
    _, out = cli("minpres", "--gens", gens)
    payload = json.loads(out)
    edit(payload)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    return cli("verify", "--gens", gens, "--presentation", str(path))


@pytest.mark.parametrize(
    "gens, edit",
    [
        ("6,9,20", lambda p: p["relations"][0].update(betti=999)),
        ("6,9,20", lambda p: p.update(betti_elements=[18, 999])),
        ("6,9,20", lambda p: p["generators"].__setitem__(0, 6.0)),
        # true == 1, so only the type tells it from the generator 1
        ("1", lambda p: p["generators"].__setitem__(0, True)),
    ],
    ids=["betti-tag", "betti-elements", "float-generator", "bool-generator"],
)
def test_verify_refuses_a_file_unlike_what_it_holds(cli, tmp_path, gens, edit):
    assert _tampered_presentation(cli, tmp_path, edit, gens) == (1, "")


def test_verify_accepts_a_file_without_tags(cli, tmp_path):
    def untag(payload):
        del payload["betti_elements"]
        for r in payload["relations"]:
            del r["betti"]

    code, out = _tampered_presentation(cli, tmp_path, untag)
    assert code == 0 and out.startswith("ok window=")


def test_verify_refuses_a_negative_bound_before_reading_the_file(cli, tmp_path, capsys):
    # the bound is checked first, so a missing file is never opened
    missing = tmp_path / "missing.json"
    assert cli("verify", "--gens", "6,9,20", "--presentation", str(missing),
               "--bound", "-5") == (1, "")
    err = capsys.readouterr().err
    assert "bound must be a non-negative integer, got -5" in err
    assert "cannot read" not in err


def test_bad_usage_is_exit_1(cli, tmp_path, capsys):
    assert cli("betti", "--gens", "6,x")[0] == 1
    assert cli("betti", "--gens", "6,9,20", "--bogus")[0] == 1
    assert cli("frobnicate")[0] == 1
    assert cli("survey", "--r", "6,9,20", "--n-from", "0", "--n-to", "4",
               "--which", "betti", "--out", "-")[0] == 1
    assert "--n-from: must be positive, got 0" in capsys.readouterr().err
    # an output path that cannot be written is refused, not a traceback
    assert cli("survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "402",
               "--which", "betti",
               "--out", str(tmp_path / "missing" / "x.csv")) == (1, "")
    # negative bounds are refused, not run, by the library's own gates
    path = tmp_path / "pres.json"
    path.write_text(cli("minpres", "--gens", "6,9,20")[1])
    capsys.readouterr()
    assert cli("verify", "--gens", "6,9,20", "--presentation", str(path),
               "--bound", "-5") == (1, "")
    err = capsys.readouterr().err
    assert "bound must be a non-negative integer, got -5" in err
    assert cli("invariant", "--gens", "6,9,20", "--which", "tame",
               "--window", "-3") == (1, "")
    err = capsys.readouterr().err
    assert "window must be a non-negative integer, got -3" in err
    # a window bounds the monoid-level sweeps only; with --element it is
    # refused rather than ignored
    assert cli("invariant", "--gens", "6,9,20", "--which", "tame",
               "--element", "18", "--window", "5") == (1, "")
    # the monoid-level catenary degree is exact and has no sweep to bound
    assert cli("invariant", "--gens", "6,9,20", "--which", "catenary",
               "--window", "5") == (1, "")
    capsys.readouterr()
    assert cli("factorizations", "--gens", "6,9,20", "--element", "60",
               "--cap", "-1") == (1, "")
    assert "cap must be a non-negative integer, got -1" in capsys.readouterr().err
    assert cli("survey", "--r", "6,9,20", "--n-from", "401", "--n-to", "402",
               "--which", "betti", "--out", "-", "--jobs", "0") == (1, "")
    assert "--jobs: must be positive, got 0" in capsys.readouterr().err
    assert cli("bench", "--r", "6,9,20", "--n", "401", "--repeats", "0") == (1, "")
    assert "--repeats: must be positive, got 0" in capsys.readouterr().err
    for timeout in ("-5", "nan"):
        assert cli("bench", "--r", "6,9,20", "--n", "401",
                   "--timeout-secs", timeout) == (1, "")
        assert cli("invariant", "--gens", "11,17,20,23", "--which",
                   "mon-catenary", "--timeout-secs", timeout) == (1, "")


def test_invariant_generator_above_the_window(cli):
    # the sweeps drop a generator above the window; with no window the tame
    # sweep stops at F + 2 m_t, about 3 * 10^16, and is refused with exit 2
    gens = "2,10000000000000001"
    assert cli("invariant", "--gens", gens, "--which", "tame") == (2, "")
    for which in ("delta", "eq-catenary", "tame"):
        code, out = cli("invariant", "--gens", gens, "--which", which,
                        "--window", "10")
        assert code == 0 and json.loads(out)["window"] == 10


def test_invariant_family_equal_catenary_of_wide_offsets(cli):
    # offsets (1, 1000) and (1, 430): the equal degree is read off the Betti
    # graphs, as the ordinary degree is, with no window to refuse
    for gens, which, value in (
        ("1000001,1000002,1001001", "eq-catenary", 1000),
        ("1000001,1000002,1001001", "mon-catenary", 1002),
        ("184901,184902,185331", "eq-catenary", 430),
    ):
        t0 = time.perf_counter()
        code, out = cli("invariant", "--gens", gens, "--which", which)
        assert time.perf_counter() - t0 < 10.0
        assert (code, json.loads(out)) == (
            0,
            {"which": which, "value": value, "exact": True, "window": None},
        )


def test_non_primitive_monoid_is_refused_naming_it(cli, capsys):
    # above the lift's threshold the router refuses M itself, before the
    # base shift is scanned or a sweep starts: the message names gcd(M)
    # and m_1
    for gens, argv in (
        ("1000,1002,1004", ("minpres",)),
        ("400000,400002,400600", ("invariant", "--which", "eq-catenary")),
        ("1000000,1000002,1000860", ("invariant", "--which", "eq-catenary")),
    ):
        t0 = time.perf_counter()
        assert cli(*argv, "--gens", gens) == (1, "")
        assert time.perf_counter() - t0 < 2.0
        m1 = gens.split(",")[0]
        err = capsys.readouterr().err
        assert f"gcd of generators is 2; some residues mod {m1} " in err


def test_invariant_timeout_is_exit_2(cli):
    # the windowed sweep honours the budget and prints nothing
    assert cli("invariant", "--gens", "11,17,20,23", "--which",
               "mon-catenary", "--timeout-secs", "0") == (2, "")

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import unicount
from unicount import cli, oracle, polyring, solcount
from unicount.cli import (build_parser, check_identities, compute_table, format_table,
                          load_golden_tables, main, parse_q_poly)
from unicount.algdata import AlgebraicData, NonZero
from unicount.engine import Census, EngineContext, Family, ResolvedTable, resolve
from unicount.patterns import chain, encode_pattern
from unicount.polyring import CountPoly

from conftest import load_script


ROOT = Path(__file__).resolve().parents[1]


def _golden_only(monkeypatch, n):
    """regress compares n alone, so that the suite stays fast."""
    rows = load_golden_tables()[n]
    monkeypatch.setattr(cli, "load_golden_tables", lambda: {n: rows})
    return rows


@pytest.fixture
def golden_10(monkeypatch):
    return _golden_only(monkeypatch, 10)


@pytest.fixture
def golden_12(monkeypatch):
    """U_12 is the least chain that reaches the general engine (182 nodes)."""
    return _golden_only(monkeypatch, 12)


class TestParseQPoly:
    def test_basic(self):
        p = parse_q_poly("7q^9 - 6q^8 - q^7")
        assert p.terms == {(9, 0): 7, (8, 0): -6, (7, 0): -1}

    def test_constants_and_linear(self):
        p = parse_q_poly("q^5 - 4q^4 + 6q^3 - 4q^2 + q")
        assert p.eval_at(2) == 2  # q(q-1)^4 at q=2

    def test_plain_constant(self):
        assert parse_q_poly("1").terms == {(0, 0): 1}

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_q_poly("q^2 + spam")


def test_golden_tables_internally_consistent():
    golden = load_golden_tables()
    assert sorted(golden) == [10, 11, 12, 13]
    for n, rows in golden.items():
        table = ResolvedTable(n, rows)
        rep = check_identities(table)
        assert rep["pass"], f"golden transcription inconsistent for n={n}: {rep}"


class TestComputeCommand:
    def test_trivial_group(self, capsys):
        assert main(["compute", "--n", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["table"] == [{"e": 0, "poly": {"terms": [{"q": 0, "t": 0, "c": 1}]}}]

    def test_n10_has_21_rows(self, capsys):
        assert main(["compute", "--n", "10"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [row["e"] for row in obj["table"]] == list(range(21))

    @pytest.mark.parametrize("args, error", [
        ([], "one of the arguments --n --poset is required"),
        (["--n", "3", "--poset", "poset.json"],
         "argument --poset: not allowed with argument --n"),
    ], ids=["neither", "both"])
    def test_needs_exactly_one_of_n_and_poset(self, capsys, args, error):
        # from Python, neither once raised a TypeError and both ignored n
        with pytest.raises(SystemExit) as exc:
            main(["compute"] + args)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "usage:" in out.err
        assert out.err.endswith(f"unicount compute: error: {error}\n")

    def test_poset_input(self, tmp_path, capsys):
        poset_file = tmp_path / "poset.json"
        poset_file.write_text(json.dumps(
            {"elems": [1, 2, 3], "rel": [[1, 2], [1, 3], [2, 3]]}))
        assert main(["compute", "--poset", str(poset_file)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {row["e"] for row in obj["table"]} == {0, 1}

    def test_budget_exhaustion_is_nonzero_exit(self, tmp_path, capsys):
        # the 12-element chain reaches the general engine (182 nodes) through
        # stabilisers whose antichain has two elements in one row; a tiny
        # node budget leaves uncontracted families behind
        poset_file = tmp_path / "poset.json"
        rel = [[i, j] for i in range(1, 13) for j in range(i + 1, 13)]
        poset_file.write_text(json.dumps({"elems": list(range(1, 13)), "rel": rel}))
        assert main(["--max-nodes", "1", "compute", "--poset", str(poset_file)]) == 2

    def test_large_sparse_poset(self, tmp_path, capsys):
        # 300 disjoint relations on 600 elements: a node's normal closure
        # covers its peeled row only, so this stays well under a second, and
        # the pattern recursion nests deeper than the default recursion limit
        poset_file = tmp_path / "poset.json"
        rel = [[2 * i + 1, 2 * i + 2] for i in range(300)]
        poset_file.write_text(json.dumps({"elems": list(range(1, 601)), "rel": rel}))
        argv = ["compute", "--poset", str(poset_file), "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "n,e,polynomial\n600,0,q^300\n\n"

    @pytest.mark.parametrize("text", [
        # a repeated element once gave a wrong table and exit 0
        '{"elems": [1, 2, 2, 3], "rel": [[1, 2], [2, 3], [1, 3]]}',
        '{"elems": [1, 2], "rel": [[1, 2]',
        '{"elems": [1, 2]}',
        '{"elems": [1, 2], "rel": [[2, 2]]}',
        None,
    ], ids=["repeated-element", "bad-json", "missing-key", "reflexive", "missing-file"])
    def test_bad_poset_file_exits_2(self, tmp_path, capsys, text):
        poset_file = tmp_path / "poset.json"
        if text is not None:
            poset_file.write_text(text)
        assert main(["compute", "--poset", str(poset_file)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("bad poset file") and out.err.count("\n") == 1

    def test_formats(self):
        table = compute_table(3, EngineContext())
        assert "q^{2}" in format_table(table, "latex")
        csv = format_table(table, "csv")
        assert csv.splitlines()[0] == "n,e,polynomial"
        assert len(csv.strip().splitlines()) == 3
        assert json.loads(format_table(table, "json")) == {
            "n": 3,
            "table": [{"e": 0, "poly": {"terms": [{"q": 2, "t": 0, "c": 1}]}},
                      {"e": 1, "poly": {"terms": [{"q": 1, "t": 0, "c": 1},
                                                  {"q": 0, "t": 0, "c": -1}]}}],
            "families": [], "unresolved_counts": []}


class TestRegressCommand:
    def test_passes_on_small_subset(self, capsys, golden_10):
        assert main(["regress"]) == 0
        assert "21 rows match exactly" in capsys.readouterr().out

    def test_perturbed_golden_fails_with_location(self, capsys, golden_10):
        golden_10[7] = golden_10[7] + CountPoly.one()
        assert main(["regress"]) == 3
        out = capsys.readouterr().out
        assert "MISMATCH n=10 e=7" in out
        assert "golden:" in out and "computed:" in out


class TestAuditedCommands:
    """identities and regress exit 2 when the count audit finds a violation."""

    @pytest.fixture(autouse=True)
    def disagreeing_audit(self, monkeypatch):
        monkeypatch.setattr(oracle, "count_values_bruteforce", lambda *a, **k: -1)

    def test_identities(self, capsys):
        assert main(["--debug-counts", "identities", "--max-n", "13"]) == 2
        # each n has its own memos: n = 12 counts two systems and n = 13
        # twelve, and each disagrees at the four audited fields
        assert "count audit violations: 56; systems audited: 14;" in capsys.readouterr().err

    def test_regress(self, capsys, golden_12):
        assert main(["--debug-counts", "regress"]) == 2
        out = capsys.readouterr()
        assert "31 rows match exactly" in out.out
        assert "count audit violations" in out.err


class TestUnresolvableFamily:
    """A node budget too small to finish leaves families that resolve
    cannot fold; the command names each, shows no such table and exits 2."""

    def test_regress(self, capsys, golden_12):
        assert main(["--max-nodes", "5", "regress"]) == 2
        out = capsys.readouterr()
        assert "unfolded family at t^" in out.err and out.out == ""

    def test_identities(self, capsys):
        # U_11 takes no node, and U_12 182, past the budget
        assert main(["--max-nodes", "50", "identities", "--max-n", "12"]) == 2
        out = capsys.readouterr()
        assert "unfolded family at t^" in out.err and "n=12:" not in out.out


class TestCoefficientOverflow:
    """polyring reads a packed coefficient back only while the coefficient
    bound stays below _HALF; here it is narrowed from 2^63 to 2^8, and the
    tables of U_7 have coefficients whose absolute values sum past 256."""

    @pytest.fixture(autouse=True)
    def narrow_digits(self, monkeypatch):
        monkeypatch.setattr(polyring, "_HALF", 2**8)

    def test_overflow_is_exit_2_with_no_table(self, capsys):
        assert main(["compute", "--n", "7"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "coefficient overflow" in out.err

    def test_tables_within_the_bound_are_unchanged(self, monkeypatch, capsys):
        assert main(["compute", "--n", "6"]) == 0
        narrow = capsys.readouterr().out
        monkeypatch.undo()
        assert main(["compute", "--n", "6"]) == 0
        assert capsys.readouterr().out == narrow


def test_identities_node_budget_is_per_table(capsys):
    # identities names, for the n it stops at, as many uncontracted
    # families as compute --n names for that n under the same budget
    budget = re.compile(r"node budget of 50 exhausted: (\d+) families left uncontracted")
    assert main(["--max-nodes", "50", "identities", "--max-n", "12"]) == 2
    out = capsys.readouterr()
    n = out.out.count("[ok]") + 1
    named = budget.findall(out.err)
    assert main(["--max-nodes", "50", "compute", "--n", str(n)]) == 2
    alone = budget.findall(capsys.readouterr().err)
    assert alone and named[-1:] == alone


def test_identities_command(capsys):
    assert main(["identities", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 5


def _moves(*moves):
    """Rows e and the polynomials in q, by (exponent, coefficient), added to them."""
    return [(e, CountPoly({(dq, 0): c for dq, c in terms})) for e, terms in moves]


@pytest.mark.parametrize("moves, field", [
    # q^2 (q-1) degree-q characters in place of q - 1 of degree q^2
    (_moves((1, [(3, 1), (2, -1)]), (2, [(1, -1), (0, 1)])), "degree_q_row"),
    # (q-1)^2 characters of the top degree q^9 in place of q^2 (q-1)^2 of degree q^8
    (_moves((9, [(2, 1), (1, -2), (0, 1)]), (8, [(4, -1), (3, 2), (2, -1)])), "top_row"),
], ids=["degree-q-row", "top-row"])
def test_identities_refuses_a_row_off_its_closed_form(capsys, monkeypatch, moves, field):
    # each perturbation of U_7 keeps the sum rule, N_{7,0} = q^6 and the
    # positive shifted coefficients, so only its closed form refuses it
    table7 = compute_table(7, EngineContext())
    entries = dict(table7.entries)
    for e, p in moves:
        entries[e] = entries[e] + p
    wrong = ResolvedTable(7, entries)
    report = check_identities(wrong)
    assert report["sum_rule"] and report["linear_rule"] and report["shifted_nonnegative"]
    assert [k for k in ("degree_q_row", "top_row") if not report[k]] == [field]
    real = cli.compute_table
    monkeypatch.setattr(cli, "compute_table",
                        lambda n, ctx: wrong if n == 7 else real(n, ctx))
    assert main(["identities", "--max-n", "7"]) == 2
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("n=7: ") and f"{field}=False" in line and line.endswith("[FAIL]")


def test_readme_command_lines_parse():
    # every `unicount ...` line of the README's command-line block is one
    # that build_parser, the one validator, accepts
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("unicount ")]
    assert len(lines) == 6
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.run.__name__ == "cmd_" + args.command.replace("-", "_"), line


def test_verify_command(capsys):
    assert main(["verify", "--max-n", "4", "--q", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in reports)
    assert {r["instance"] for r in reports} == {"U_2(2)", "U_3(2)", "U_4(2)"}


def test_verify_checks_a_repeated_q_once(capsys):
    # --q 2 2 once compared U_2(2) twice and reported it twice
    assert main(["verify", "--max-n", "2", "--q", "2", "2"]) == 0
    assert [r["instance"] for r in json.loads(capsys.readouterr().out)] == ["U_2(2)"]


def test_verify_refuses_an_instance_over_the_class_count_cap(capsys, monkeypatch):
    # U_6(3) has order 3^15, too many elements to count classes of; this
    # once ended in a traceback after computing every table
    monkeypatch.setattr(cli, "compute_table", lambda n, ctx: pytest.fail("table computed"))
    assert main(["verify", "--max-n", "6"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "U_6(3) has order 3^15, over the class-count cap of 1000000\n"


def _two_unfolded(n):
    """U_n's table with two families that resolve cannot fold: a
    3-dimensional core and a family of all characters."""
    data = AlgebraicData((0,), (NonZero(0),), (0, 1, 2), {(0, 1): [(2, frozenset([0]))]})
    fams = (Family(data, 2, 0, 0, 5), Family(encode_pattern(chain(3)), None, 0, 0, 7))
    return resolve(Census(CountPoly.zero(), (), fams), n, EngineContext())


def test_verify_refuses_an_unknown_core(capsys, monkeypatch):
    # verify's instances are too small to exhaust a node budget, so the
    # families are forced on the first and last tables.  A family refusal
    # once ended the run at its first core, and the reports were printed
    # only with the last table, so a refused last table dropped them all
    real = cli.compute_table
    monkeypatch.setattr(cli, "compute_table",
                        lambda n, ctx: _two_unfolded(n) if n != 3 else real(n, ctx))
    assert main(["verify", "--max-n", "4", "--q", "2"]) == 2
    out = capsys.readouterr()
    assert [r["instance"] for r in json.loads(out.out)] == ["U_3(2)"]
    assert out.err == 2 * (
        "unfolded family at t^5: AlgebraicData(dim=3, params=1, restrictions=1, products=1)\n"
        "unfolded family at t^7: AlgebraicData(dim=3, params=0, restrictions=0, products=1)\n")


def test_dump_families_n5_empty(capsys):
    assert main(["dump-families", "--n", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_dump_families_needs_n(capsys):
    # from Python, a config without n once ended in a TypeError
    with pytest.raises(SystemExit) as exc:
        main(["dump-families"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage:" in out.err
    assert out.err.endswith("error: the following arguments are required: --n\n")


def test_latex_table_text():
    # every row is the polynomial's repr with its exponents in braces
    assert format_table(compute_table(5, EngineContext()), "latex") == r"""\begin{tabular}{|c|l|}
\hline
\multicolumn{2}{c}{$n=5$} \\
\hline
$e$ & $N_{n,e}(q)$ \\
\hline
0 & $q^{4}$ \\
\hline
1 & $2q^{4} - q^{3} - q^{2}$ \\
\hline
2 & $2q^{4} - q^{3} - 2q^{2} + q$ \\
\hline
3 & $2q^{3} - 3q^{2} + q$ \\
\hline
4 & $q^{2} - 2q + 1$ \\
\hline
\end{tabular}
"""


def test_reports_are_byte_identical_across_runs():
    # determinism contract: same configuration, same bytes
    a = format_table(compute_table(6, EngineContext()), "json")
    b = format_table(compute_table(6, EngineContext()), "json")
    assert a == b
    la = format_table(compute_table(5, EngineContext()), "latex")
    lb = format_table(compute_table(5, EngineContext()), "latex")
    assert la == lb


def _fresh_stdout(*args: str) -> str:
    """The stdout of a fresh interpreter that imports this package, run
    with args, which must exit 0."""
    src = str(Path(unicount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def test_import_leaves_recursion_limit_alone():
    out = _fresh_stdout("-c", "import sys; before = sys.getrecursionlimit(); import unicount; "
                     "print(sys.getrecursionlimit() == before)")
    assert out.strip() == "True"


def test_numpy_stays_out_of_the_engine():
    # only the oracle's vectorised helpers import numpy
    out = _fresh_stdout(
        "-c", "import sys; import unicount.cli as cli; print('numpy' in sys.modules); "
        "rc = cli.main(['compute', '--n', '6']); "
        "print(rc, 'numpy' in sys.modules)")
    lines = out.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"


def test_run_tables_script():
    # the table script runs end to end on the package's API and matches
    # the vendored table at n = 10
    lines = _fresh_stdout(str(ROOT / "scripts" / "run_tables.py"), "--max-n", "10").splitlines()
    assert len(lines) == 10
    assert lines[-1].startswith("n=10") and "golden=ok" in lines[-1]


def test_run_tables_refuses_a_table_with_count_records(tmp_path, capsys, monkeypatch):
    # the script once wrote the n = 11 table without the records' rows and
    # never named them, as compute --n 12 does
    run_tables = load_script("run_tables")
    monkeypatch.setattr(solcount, "count_solutions", lambda *system: None)
    assert run_tables.main(["--max-n", "12", "--latex-dir", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.err == "279 unresolved count records\n"
    assert [line[:4] for line in out.out.splitlines()] == [f"n={n:2d}" for n in range(1, 12)]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"table_n{n}.tex" for n in range(1, 12))


def test_a_missing_table_file_is_one_line_and_exit_2(capsys, monkeypatch):
    # regress and run_tables.py ended in a traceback, exit 1
    class Missing:
        def joinpath(self, name):
            return self

        def read_text(self):
            raise FileNotFoundError("no appendix_tables.json")

    monkeypatch.setattr(cli.resources, "files", lambda package: Missing())
    run_tables = load_script("run_tables")
    for run, prog in ((lambda: main(["regress"]), "regress"),
                      (lambda: run_tables.main(["--max-n", "1"]), "run_tables.py")):
        assert run() == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"{prog}: the vendored table file is missing: " \
            "no appendix_tables.json\n"


def test_refusals_script_pins_the_first_refusal(capsys):
    # the first 152 orders of the seed-7 sample: order 151 keeps a 5- and
    # a 4-dimensional core that resolve cannot fold and 4 count records,
    # and the other 151 resolve; the summed counts are deterministic.  The
    # line once named the first core alone
    assert load_script("run_refusals").main(["--orders", "152"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ["151 core: AlgebraicData(dim=5, params=3, restrictions=4, "
                          "products=3); core: AlgebraicData(dim=4, params=2, restrictions=2, "
                          "products=2); records: stuck systems 3, count records 4"]
    assert re.fullmatch(r"refused 1 of 152 orders \(seed 7\) in [\d.]+ s, "
                        r"13015 engine nodes, 14748 memo_pattern entries", lines[-1])


def test_main_entrypoint(capsys):
    rc = main(["compute", "--n", "3", "--format", "csv"])
    assert rc == 0
    assert "q^2" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["compute", "--n", "12"], ["dump-families", "--n", "12"],
                                  ["identities", "--max-n", "12"], ["regress"]])
def test_exhausted_node_budget_is_named(capsys, golden_12, argv):
    # compute once named only the first uncontracted core, and
    # dump-families printed the cores the budget cut as survivors, exit 0
    assert main(["--max-nodes", "4"] + argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(re.fullmatch(r"node budget of 4 exhausted: \d+ families left uncontracted",
                            line) for line in err), err


def test_node_budget_binds_after_an_earlier_run(tmp_path, capsys, monkeypatch):
    # a table that an earlier run had written to the report cache was once
    # served without applying --max-nodes, exit 0
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "--n", "12"]) == 0
    capsys.readouterr()
    assert main(["--max-nodes", "4", "compute", "--n", "12"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(re.fullmatch(r"node budget of 4 exhausted: \d+ families left uncontracted",
                            line) for line in err), err
    assert list(tmp_path.iterdir()) == []


def test_debug_counts_reports_what_it_audited(capsys):
    assert main(["--debug-counts", "compute", "--n", "12"]) == 0
    assert capsys.readouterr().err == (
        "count audit violations: 0; systems audited: 2; "
        "skipped with more than 8 parameters: 0\n")


@pytest.mark.parametrize("argv, audited", [
    (["regress"], 2),
    (["identities", "--max-n", "12"], 2),
    (["verify", "--max-n", "4", "--q", "2"], 0),
    (["dump-families", "--n", "12"], 2),
], ids=["regress", "identities", "verify", "dump-families"])
def test_every_command_reports_the_count_audit(capsys, golden_12, argv, audited):
    # as test_debug_counts_reports_what_it_audited does for compute;
    # verify and dump-families once ignored --debug-counts
    assert main(["--debug-counts"] + argv) == 0
    assert capsys.readouterr().err == (
        f"count audit violations: 0; systems audited: {audited}; "
        "skipped with more than 8 parameters: 0\n")


@pytest.mark.parametrize("argv", [["compute", "--n", "12"], ["identities", "--max-n", "12"],
                                  ["dump-families", "--n", "12"], ["regress"]],
                         ids=["compute", "identities", "dump-families", "regress"])
def test_every_command_names_surviving_count_records(capsys, monkeypatch, golden_12, argv):
    # with every substitution count refused, n = 12 keeps 279 count
    # records and no smaller n keeps any; dump-families once printed []
    # for them and exited 0, identities and regress never named them, and
    # they then judged the table that lacks the records' rows: regress
    # printed a wrong computed row and exited 3, identities a FAIL line
    monkeypatch.setattr(solcount, "count_solutions", lambda *system: None)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert re.search(r"^279 unresolved count records$", out.err, re.M), out.err
    assert not re.search(r"^(MISMATCH|  computed:|n=12:)", out.out, re.M), out.out


@pytest.mark.parametrize("fmt", ["csv", "latex", "json"])
def test_compute_prints_no_table_with_surviving_count_records(capsys, monkeypatch, fmt):
    # compute once printed the table without the records' rows, a wrong
    # N_{n,e}, and only then named the records and exited 2
    monkeypatch.setattr(solcount, "count_solutions", lambda *system: None)
    assert main(["compute", "--n", "12", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", "279 unresolved count records\n")


@pytest.mark.parametrize("argv", [["verify", "--q", "7"], ["compute", "--n", "-3"],
                                  ["compute", "--n", "x"], ["dump-families", "--n", "0"],
                                  # each would check nothing
                                  ["verify", "--q"], ["verify", "--max-n", "1"],
                                  ["identities", "--max-n", "0"],
                                  ["identities", "--max-n", "-2"],
                                  # a node budget below 1 contracts nothing
                                  ["--max-nodes", "0", "compute", "--n", "3"],
                                  ["--max-nodes", "-3", "compute", "--n", "3"],
                                  # the option of the deleted report cache
                                  ["--cache-dir", "x", "compute", "--n", "3"]])
def test_bad_arguments_give_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    # each checked nothing and exited 0
    ("run_tables", ["--max-n", "0"]), ("run_oracle_checks", ["--cases", "0"]),
    # each ended in a traceback from random_algebraic_data
    ("run_oracle_checks", ["--max-dim", "1"]), ("run_oracle_checks", ["--max-params", "-1"]),
    # would check nothing
    ("run_refusals", ["--orders", "0"]),
    # a chain with no element
    ("run_oracle_checks", ["--chains", "0"])])
def test_script_bad_arguments_give_usage(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["compute", "--n", "6"], ["regress"]])
def test_running_out_of_memory_is_an_honest_exit(capsys, monkeypatch, argv):
    # a MemoryError deep in the recursion once ended in a traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "unitriangular_census", exhausted)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{argv[0]}: out of memory; the run did not finish\n"

import json
import math

import pytest

from conftest import G1_TEXT, G3B_TEXT
from drcr.cli import DRCR_ALGOS, SRLG_ALGOS, main, nearest_rank


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def g1_files(tmp_path):
    graph = write(tmp_path / "graph.txt", G1_TEXT)
    queries = write(tmp_path / "queries.jsonl", "\n".join([
        json.dumps({"src": 0, "dst": 2, "L": 0, "U": 10}),
        json.dumps({"src": 0, "dst": 2, "L": 3, "U": 5}),
        json.dumps({"src": 0, "dst": 2, "L": 5, "U": 6}),
    ]) + "\n")
    return graph, queries


class TestGen:
    def test_deterministic_corpus(self, tmp_path):
        args = ["gen", "--nodes", "50", "--pmult", "1", "--seed", "7",
                "--cases", "drcr", "--queries", "10"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("graph.txt", "queries.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_queries_use_file_node_ids(self, tmp_path):
        from drcr.graph import load_network
        from drcr.pulse import DrcrCase, DrcrQuery, classify_case
        out = tmp_path / "q"
        assert main(["gen", "--nodes", "50", "--pmult", "1", "--seed", "7",
                     "--cases", "drcr", "--queries", "10",
                     "--out", str(out)]) == 0
        net = load_network((out / "graph.txt").read_text())
        recs = [json.loads(l)
                for l in (out / "queries.jsonl").read_text().splitlines()]
        assert recs
        for rec in recs:
            case, _ = classify_case(net, DrcrQuery(**rec))
            assert case in (DrcrCase.NON_TRIVIAL_4, DrcrCase.NON_TRIVIAL_6)

    def test_nonstar_covers_links(self, tmp_path):
        out = tmp_path / "c"
        assert main(["gen", "--nodes", "40", "--pmult", "2", "--seed", "1",
                     "--cases", "srlg", "--srlg-style", "nonstar",
                     "--queries", "5", "--out", str(out)]) == 0
        from drcr.graph import load_network
        net = load_network((out / "graph.txt").read_text())
        assert all(l.srlgs for l in net.links)


class TestSolve:
    @pytest.mark.parametrize("algo", ["pulse+", "cost-ksp", "delay-ksp",
                                      "lagrangian-ksp"])
    def test_drcr_statuses(self, g1_files, tmp_path, algo):
        graph, queries = g1_files
        out = tmp_path / "res.jsonl"
        assert main(["solve", "--graph", graph, "--queries", queries,
                     "--algo", algo, "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["status"] for r in recs] == ["optimal", "optimal",
                                               "infeasible"]
        assert [r["cost"] for r in recs] == [2, 10, None]
        for r in recs:
            assert r["algo"] == algo and r["graph"] == "graph.txt"
            assert r["timeout_phase"] is None

    @pytest.mark.parametrize("algo", DRCR_ALGOS + SRLG_ALGOS)
    def test_record_keys(self, g1_files, tmp_path, algo):
        graph, queries = g1_files
        if algo in SRLG_ALGOS:
            graph = write(tmp_path / "g3b.txt", G3B_TEXT)
            queries = write(tmp_path / "q.jsonl", json.dumps(
                {"src": 0, "dst": 3, "U": 10, "delta": 4}) + "\n")
        out = tmp_path / "res.jsonl"
        assert main(["solve", "--graph", graph, "--queries", queries,
                     "--algo", algo, "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert recs
        for r in recs:
            assert {"status", "iterations", "elapsed_us", "timeout_phase",
                    "cost", "delay", "path"} <= r.keys()
            assert ("backup_path" in r) == (algo in SRLG_ALGOS)
            assert "ksp_iterations" not in r

    def test_srlg_algo(self, tmp_path):
        graph = write(tmp_path / "g3b.txt", G3B_TEXT)
        queries = write(tmp_path / "q.jsonl", json.dumps(
            {"src": 0, "dst": 3, "U": 10, "delta": 4}) + "\n")
        out = tmp_path / "res.jsonl"
        assert main(["solve", "--graph", graph, "--queries", queries,
                     "--algo", "cose-pulse+", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["status"] == "optimal" and rec["cost"] == 11
        assert rec["backup_path"] is not None
        assert rec["conflict_sets_found"] >= 1

    def test_unknown_algo_usage_error(self, g1_files, capsys):
        graph, queries = g1_files
        with pytest.raises(SystemExit) as e:
            main(["solve", "--graph", graph, "--queries", queries,
                  "--algo", "magic"])
        assert e.value.code != 0

    def test_tiny_time_limit_times_out_exit_zero(self, tmp_path):
        from conftest import random_net
        from drcr.graph import dump_network
        net = random_net(3, 15, 1.0)
        graph = write(tmp_path / "dense.txt", dump_network(net))
        queries = write(tmp_path / "q.jsonl", json.dumps(
            {"src": 0, "dst": 14, "L": 60, "U": 80}) + "\n")
        out = tmp_path / "res.jsonl"
        assert main(["solve", "--graph", graph, "--queries", queries,
                     "--algo", "pulse+", "--time-limit-ms", "0.001",
                     "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["status"] == "timeout"
        assert rec["timeout_phase"] in ("graph.dijkstra", "pulse.search")


class TestReport:
    def test_nearest_rank_definition(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 99) == 99
        assert nearest_rank([7], 50) == 7

    def test_all_solved(self, tmp_path):
        res = write(tmp_path / "r.jsonl", "\n".join(
            json.dumps({"status": "optimal", "elapsed_us": 10 * (i + 1),
                        "algo": "pulse+", "graph": "g",
                        "time_limit_us": 1000}) for i in range(4)) + "\n")
        out = tmp_path / "rep.csv"
        assert main(["report", "--results", res, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "topology,algo,p50_us,p75_us,p99_us,completion_rate"
        assert lines[1] == "g,pulse+,20,30,40,1.0000"

    def test_pulse_options_get_their_own_rows(self, g1_files, tmp_path):
        graph, queries = g1_files
        results = []
        for name, flags in (("ldf", []), ("no-ldf", ["--no-ldf"]),
                            ("joint", ["--joint-pruning"])):
            out = tmp_path / f"{name}.jsonl"
            assert main(["solve", "--graph", graph, "--queries", queries,
                         "--algo", "pulse+", "--out", str(out)] + flags) == 0
            results.append(str(out))
        rep = tmp_path / "rep.csv"
        assert main(["report", "--results", *results, "--out", str(rep)]) == 0
        algos = [row.split(",")[1] for row in rep.read_text().splitlines()[1:]]
        assert algos == ["pulse+", "pulse+/joint-pruning", "pulse+/no-ldf"]

    def test_half_timeouts(self, tmp_path):
        recs = [{"status": "optimal", "elapsed_us": 5, "algo": "a",
                 "graph": "g", "time_limit_us": 100}] * 2 + \
               [{"status": "timeout", "elapsed_us": 100, "algo": "a",
                 "graph": "g", "time_limit_us": 100}] * 2
        res = write(tmp_path / "r.jsonl",
                    "\n".join(json.dumps(r) for r in recs) + "\n")
        out = tmp_path / "rep.csv"
        assert main(["report", "--results", res, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "5"           # p50
        assert row[3] == ">100"        # p75 hits the timeout sentinel
        assert row[5] == "0.5000"

    def test_empty_input_errors(self, tmp_path):
        res = write(tmp_path / "r.jsonl", "")
        assert main(["report", "--results", res]) == 1

    def test_idempotent(self, tmp_path):
        res = write(tmp_path / "r.jsonl", json.dumps(
            {"status": "optimal", "elapsed_us": 3, "algo": "a",
             "graph": "g", "time_limit_us": None}) + "\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["report", "--results", res, "--out", str(a)])
        main(["report", "--results", res, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

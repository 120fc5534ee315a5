import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rvrp
from rvrp import Instance, check_feasible, decode, route_cost
from rvrp import cli, generator, jsonio, stats
from rvrp.cli import build_parser, main

from conftest import make_joint_infeasible_instance
from spec import route_loads


@pytest.fixture()
def small_suite_dir(tmp_path):
    instances = [
        generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="toy_a"),
        generator.small_instance(30, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="toy_b"),
    ]
    generator.write_suite(instances, tmp_path / "suite", seed=5)
    return tmp_path / "suite"


@pytest.fixture()
def toy_instance_file(tmp_path):
    inst = generator.small_instance(25, cluster_sizes=(2, 4), forbidden_per_cluster=1, name="toy")
    return inst.save(tmp_path / "toy.json")


def test_generate_full_suite(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["generate", "--seed", "7", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("Osaba_*.json"))
    assert len(files) == 15
    assert (out / "suite-manifest.json").exists()
    captured = capsys.readouterr().out
    assert "# rvrp generate" in captured
    assert "seed = 7" in captured
    assert "Osaba_100_3" in captured


def test_generate_only_one_instance(tmp_path):
    out = tmp_path / "bench"
    assert main(["generate", "--seed", "7", "--out", str(out), "--only", "Osaba_100_3"]) == 0
    assert [p.name for p in out.glob("Osaba_*.json")] == ["Osaba_100_3.json"]


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--seed", "9", "--out", str(out), "--only", "Osaba_50_1_2"]) == 0
    assert (a / "Osaba_50_1_2.json").read_bytes() == (b / "Osaba_50_1_2.json").read_bytes()


def test_generate_unknown_name_fails(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["generate", "--seed", "7", "--out", str(out), "--only", "nope"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'nope'" in err[0]
    assert not out.exists()


def test_generate_exits_3_when_generation_fails(tmp_path, capsys, monkeypatch):
    def fail(seed, only=None):
        raise generator.GenerationError("cluster 1: no feasible forbidden set found")

    monkeypatch.setattr(generator, "generate_suite", fail)
    out = tmp_path / "bench"
    assert main(["generate", "--seed", "7", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "generation failed: cluster 1: no feasible forbidden set found\n"
    assert not out.exists()


def test_validate_ok(toy_instance_file, capsys):
    assert main(["validate", str(toy_instance_file)]) == 0
    assert ": ok" in capsys.readouterr().out


def test_validate_reads_an_instance_saved_with_a_byte_order_mark(tmp_path, toy_instance_file, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + toy_instance_file.read_bytes())
    assert main(["validate", str(path)]) == 0
    assert ": ok" in capsys.readouterr().out


def test_validate_flags_violations(tmp_path, toy_instance_file, capsys):
    data = json.loads(toy_instance_file.read_text())
    data["nodes"][1]["cluster"] = 2  # break cluster contiguity of ids
    data["nodes"][1]["delivery"] = 0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert main(["validate", str(broken)]) == 1
    assert "violation" in capsys.readouterr().out


def test_cluster_without_a_joint_order_is_invalid(tmp_path, capsys):
    # each rule alone admits an order of the cluster, but no order keeps both
    path = make_joint_infeasible_instance().save(tmp_path / "joint.json")
    assert main(["validate", str(path)]) == 1
    assert "violation cluster-order-infeasible" in capsys.readouterr().out
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    assert "cluster-order-infeasible" in capsys.readouterr().err
    assert not out.exists()


def test_a_cluster_too_large_to_prove_is_named_without_a_traceback(tmp_path, capsys):
    # one 1,000-member cluster: its proof recursed past Python's limit, and
    # validate and solve ended in a RecursionError traceback with exit 1. The
    # matrices are left empty (matrix-shape-invalid) to keep the file small
    data = generator.small_instance(0, cluster_sizes=(2,)).to_dict()
    node = data["nodes"][1]
    nodes = [data["nodes"][0], *({**node, "id": k, "x": float(k), "cluster": 1} for k in range(1, 1001))]
    path = tmp_path / "large.json"
    path.write_text(json.dumps({**data, "nodes": nodes, "cost_offpeak": [], "cost_peak": []}))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "violation cluster-too-large-to-prove: cluster 1 has 1000 members, more than 16" in captured.out
    assert "Traceback" not in captured.err
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cluster-too-large-to-prove" in err
    assert not out.exists()


def test_solve_writes_feasible_solution(tmp_path, toy_instance_file, capsys):
    out = tmp_path / "sol.json"
    code = main(
        ["solve", str(toy_instance_file), "--algorithm", "dfa@p15", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    inst = Instance.load(toy_instance_file)
    sol = decode(data["encoding"], inst)
    assert check_feasible(sol, inst).feasible
    assert data["vehicles"] == sol.vehicles
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    fields = summary.split()
    assert fields[0] == "toy" and fields[1] == "dfa@p15"
    assert len(fields) == 7


def test_solve_deterministic_bytes(tmp_path, toy_instance_file):
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(
            ["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p15",
             "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "sizes, forbidden_per_cluster, scale, capacity",
    [((4, 5), 2, 10**19, None), ((4, 5, 6), 9, 10**19, None), ((4, 5, 6), 9, 1, 10**20)],
    ids=["loads-1e19", "tight-loads-1e19", "tight-capacity-1e20"],
)
@pytest.mark.parametrize("algorithm", ["dfa", "esa"])
def test_solve_loads_and_capacity_beyond_int64(
    tmp_path, capsys, sizes, forbidden_per_cluster, scale, capacity, algorithm
):
    # a JSON integer is unbounded: the int64 load peaks of tight clusters
    # (all three of (4, 5, 6) with 9 forbidden arcs each) must neither
    # overflow nor, under a capacity past int64, admit an order that uses a
    # forbidden arc
    inst = generator.small_instance(90, cluster_sizes=sizes, forbidden_per_cluster=forbidden_per_cluster)
    data = inst.to_dict()
    data["capacity"] = capacity or data["capacity"] * scale
    for node in data["nodes"]:
        node["delivery"] *= scale
        node["pickup"] *= scale
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 0
    huge = Instance.load(path)
    for seed in range(3):
        out = tmp_path / f"sol-{seed}.json"
        code = main(
            ["solve", str(path), "--algorithm", f"{algorithm}@p3", "--seed", str(seed),
             "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        sol = decode(json.loads(out.read_text())["encoding"], huge)
        assert check_feasible(sol, huge).feasible


def test_solve_rejects_invalid_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2


def test_experiment_end_to_end(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    code = main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p10,ea@p10,esa@p10",
         "--runs", "2", "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["cells"]) == 2 * 3
    assert all(cell["runs"] == 2 for cell in report["cells"].values())
    assert "friedman" in report and "holm" in report
    csv_lines = (out / "runs.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 12
    assert (out / "tables.txt").exists()
    assert (out / "timing.json").exists()


def test_experiment_runs_one_cell_per_instance_and_entry(tmp_path, small_suite_dir, capsys):
    # the population study's grid: each entry is a label, and @p<size> sets its population
    out = tmp_path / "exp"
    assert main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p2,dfa@p3",
         "--runs", "1", "--seed", "5", "--jobs", "1", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["algorithms"] == ["dfa@p2", "dfa@p3"]
    names = report["instances"]
    assert sorted(report["cells"]) == sorted(f"{n}/dfa@p{size}" for n in names for size in (2, 3))
    assert all(cell["runs"] == 1 and not cell["errors"] for cell in report["cells"].values())
    assert report["cells"]["toy_a/dfa@p3"]["seeds"] == [stats.run_seed(5, "toy_a", "dfa@p3", 0)]
    assert "Friedman statistic" in capsys.readouterr().out


@pytest.mark.parametrize("entry, size", [("esa", 100), ("esa@p25", 25)], ids=["esa", "esa@p25"])
def test_solve_header_states_the_entry_population(
    tmp_path, toy_instance_file, capsys, monkeypatch, entry, size
):
    # an entry without @p runs at SolverConfig's default; the header states
    # the size that ran, and the default solution path carries the entry
    sizes = []
    monkeypatch.setattr(cli, "solve", lambda inst, cfg: sizes.append(cfg.population_size) or rvrp.solve(inst, cfg))
    assert main(["solve", str(toy_instance_file), "--algorithm", entry, "--seed", "3"]) == 0
    assert sizes == [size]
    header = capsys.readouterr().out.splitlines()
    assert f"#   population = {size}" in header
    assert (tmp_path / f"toy.{entry}.solution.json").exists()


def test_solve_runs_the_config_its_entry_names(tmp_path, toy_instance_file):
    # +reloc is the config's relocation, and the solution file names the entry
    out = tmp_path / "sol.json"
    argv = ["solve", str(toy_instance_file), "--algorithm", "dfa@p5+reloc", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    inst = Instance.load(toy_instance_file)
    result = rvrp.solve(inst, rvrp.SolverConfig("dfa", 5, 3, True))
    assert (data["algorithm"], data["seed"]) == ("dfa@p5+reloc", 3)
    assert data["cost"] == result.best_cost and data["evaluations"] == result.evaluations_total
    assert data["encoding"] == rvrp.encode(result.best_solution)


SOLUTION_KEYS = [
    "algorithm", "seed", "cost", "vehicles", "evaluations", "convergence_evaluations", "cost_history", "instance",
    "encoding",
]


def test_solution_file_states_its_solution_once(tmp_path, toy_instance_file):
    # the encoding is the solution; every other key is a fact of the run
    # that found it, and agrees with it
    out = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--algorithm", "dfa@p8", "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    result = rvrp.solve(Instance.load(toy_instance_file), rvrp.SolverConfig("dfa", 8, 1))
    assert list(data) == SOLUTION_KEYS
    assert data["encoding"] == rvrp.encode(result.best_solution)
    assert data["vehicles"] == data["encoding"].count(0) + 1 == result.best_solution.vehicles
    assert data["evaluations"] == result.evaluations_total
    assert data["cost_history"] == [list(point) for point in result.cost_history]
    assert data["cost_history"][-1] == [data["convergence_evaluations"], data["cost"]]
    assert data["cost_history"][-1][1] == result.best_cost


def test_export_geojson_reads_a_solution_file_that_lists_its_routes(tmp_path, toy_instance_file):
    # solution files once stated the solution twice, as routes beside the
    # encoding; the reader reads the encoding alone
    current = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p5", "--out", str(current)]) == 0
    data = json.loads(current.read_text())
    routes = [list(route) for route in decode(data["encoding"], Instance.load(toy_instance_file)).routes]
    items, at = list(data.items()), SOLUTION_KEYS.index("evaluations")
    older = jsonio.write_json(tmp_path / "older.json", dict(items[:at] + [("routes", routes)] + items[at:]))
    geo = {}
    for path in (current, older):
        geo[path] = tmp_path / f"{path.stem}.geojson"
        assert main(["export-geojson", str(toy_instance_file), str(path), "--out", str(geo[path])]) == 0
    assert geo[older].read_bytes() == geo[current].read_bytes()


def test_solve_prints_its_header_before_refusing_an_instance(tmp_path, toy_instance_file):
    # the header states the drawn seed even of a run that never starts; run
    # unbuffered, with stderr on stdout, so the lines keep their order
    path = tmp_path / "bad.json"
    _write_edited(toy_instance_file, path, lambda data: {**data, "capacity": -1})
    out = tmp_path / "sol.json"
    env = {**os.environ, "PYTHONPATH": str(Path(rvrp.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-u", "-m", "rvrp.cli", "solve", str(path), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    *header, error = proc.stdout.splitlines()
    assert proc.returncode == 2
    assert header[0] == "# rvrp solve" and all(line.startswith("#   ") for line in header[1:])
    assert any(re.fullmatch(r"#   seed = \d+", line) for line in header)
    assert error == f"invalid instance {path}: ['capacity-invalid']"
    assert not out.exists()


def test_experiment_jobs_default_counts_the_cpus_this_process_may_use(monkeypatch):
    # an affinity mask of two CPUs on a 64-CPU machine gets two workers; where
    # the platform has no mask, every CPU counts. Parsing starts no pool
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert build_parser().parse_args(["experiment"]).jobs == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_parser().parse_args(["experiment"]).jobs == 64


def test_experiment_report_deterministic(tmp_path, small_suite_dir):
    reports = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        assert main(
            ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p8,ea@p8,esa@p8",
             "--runs", "1", "--seed", "5", "--jobs", "1", "--out", str(out)]
        ) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_experiment_single_algorithm_has_no_tests(tmp_path, small_suite_dir):
    out = tmp_path / "exp"
    assert main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p8", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert "friedman" not in report


def test_experiment_missing_manifest(tmp_path):
    assert main(["experiment", "--suite", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


def test_experiment_states_the_seed_of_a_generated_suite(tmp_path, capsys):
    # the README's study as two commands, at a small scale; the header names
    # the seed that generated the suite beside the seed of the runs
    suite, out = tmp_path / "suite", tmp_path / "results"
    assert main(["generate", "--seed", "3", "--out", str(suite)]) == 0
    assert main(
        ["experiment", "--suite", str(suite), "--algorithms", "dfa@p2,ea@p2,esa@p2", "--runs", "1",
         "--jobs", "1", "--seed", "7", "--out", str(out)]
    ) == 0
    header = capsys.readouterr().out.splitlines()
    assert "#   suite_seed = 3" in header and "#   seed = 7" in header
    report = json.loads((out / "report.json").read_text())
    assert report["algorithms"] == ["dfa@p2", "ea@p2", "esa@p2"]
    assert len(report["cells"]) == 45


@pytest.mark.parametrize("drop_seed", [False, True], ids=["seeded", "no-seed"])
def test_experiment_header_states_the_suite_seed_and_relocation(
    tmp_path, small_suite_dir, capsys, drop_seed
):
    # a suite without a seed states None; an --out under a file stops the
    # command after its header, before any solve. Relocation is stated by the
    # entries that carry +reloc, not by a line of its own
    manifest = small_suite_dir / "suite-manifest.json"
    if drop_seed:
        data = json.loads(manifest.read_text())
        del data["seed"]
        manifest.write_text(json.dumps(data))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa,dfa+reloc",
         "--out", str(blocker / "exp")]
    )
    assert code == 2
    header = capsys.readouterr().out.splitlines()
    assert f"#   suite_seed = {None if drop_seed else 5}" in header
    assert "#   algorithms = dfa,dfa+reloc" in header
    assert not any("relocation" in line for line in header)
    assert not any(line.startswith("#   population") for line in header)  # each entry states its own


# written as 990 nested arrays, about 2 KB: json.loads reads them from a
# shallow stack, but not from inside the CLI
DEEP = "<deep>"
DEEP_TEXT = "[" * 990 + "]" * 990
NESTED_TOO_DEEPLY = "the document nests its arrays or objects too deeply to read"


@pytest.mark.parametrize(
    "text, named",
    [
        ("{not json", "is not JSON"),
        ("[7]", "is not a JSON object"),
        ('{"seed": 1}', "has no 'instances' list"),
        ('{"instances": {"file": "a.json"}}', "has no 'instances' list"),
        ('{"instances": [{"file": "a.json"}, 7]}', "instance 1 is not"),
        ('{"instances": [{"name": "a"}]}', "instance 0 is not"),
        ('{"seed": "7", "instances": []}', "has seed '7', not an integer"),
        ('{"seed": true, "instances": []}', "has seed True, not an integer"),
        ('{"seed": 1, "instances": [], "seed": 2}', "repeats the key 'seed'"),
        (DEEP_TEXT, NESTED_TOO_DEEPLY),
    ],
    ids=[
        "not-json", "array", "no-instances", "instances-object", "entry-not-object",
        "entry-without-file", "seed-string", "seed-bool", "repeated-seed", "nested-990-deep",
    ],
)
def test_experiment_rejects_a_bad_manifest(tmp_path, capsys, text, named):
    suite, out = tmp_path / "suite", tmp_path / "results"
    suite.mkdir()
    manifest = suite / "suite-manifest.json"
    manifest.write_text(text)
    code = main(["experiment", "--suite", str(suite), "--out", str(out)])
    assert named in _assert_one_io_error(code, capsys, manifest)
    assert not out.exists()


def test_solve_rejects_invalid_population(tmp_path, toy_instance_file, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--algorithm", "dfa@p0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'dfa@p0'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "entries, named",
    [
        ("dfa,ea", "'dfa,ea' holds 2 entries"), (" , ", "' , ' holds 0 entries"), ("nope", "'nope'"),
        ("dfa+", "'dfa+'"), ("dfa+Reloc", "'dfa+Reloc'"), ("dfa+reloc@p5", "'dfa+reloc@p5'"),
        ("dfa@p5+reloc+reloc", "'dfa@p5+reloc+reloc'"),
    ],
    ids=["two-entries", "no-entry", "unknown-algorithm", "suffix-empty", "suffix-capital",
         "suffix-before-size", "suffix-twice"],
)
def test_solve_takes_one_valid_entry(tmp_path, toy_instance_file, capsys, entries, named):
    out = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--algorithm", entries, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_population_is_not_an_option(toy_instance_file, capsys, command):
    # a population size is an entry's @p<size>, and relocation its +reloc,
    # in both commands
    for option in (["--population", "5"], ["--enable-cluster-relocation"]):
        argv = [command, *([str(toy_instance_file)] if command == "solve" else []), *option]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algorithms", ["dfa@p5,ea@p4,esa", "dfa@p5+reloc,ea@p4+reloc,esa+reloc"], ids=["insertion", "relocation"]
)
def test_every_runs_csv_row_reruns_through_solve(tmp_path, small_suite_dir, capsys, algorithms):
    # a row's label is an --algorithm entry and its seed a --seed, so the
    # row's run is one rvrp solve of the suite's instance file, whose
    # solution file names the entry
    out = tmp_path / "exp"
    assert main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", algorithms,
         "--runs", "2", "--seed", "5", "--jobs", "1", "--out", str(out)]
    ) == 0
    rows = stats.ExperimentReport.from_csv((out / "runs.csv").read_text()).runs
    assert len(rows) == 12
    for row in rows:
        solution = tmp_path / "rerun.json"
        assert main(
            ["solve", str(small_suite_dir / f"{row.instance}.json"), "--algorithm", row.label,
             "--seed", str(row.seed), "--out", str(solution)]
        ) == 0
        rerun = json.loads(solution.read_text())
        assert rerun["cost"] == row.cost and rerun["algorithm"] == row.label


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["generate", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed" in err[0] and "-1" in err[0]
    assert not out.exists()


def test_generate_only_rejects_a_negative_seed(tmp_path, capsys):
    # the population study's first command, with a seed it cannot use
    out = tmp_path / "sweep"
    argv = ["generate", "--seed", "-1", "--only", "Osaba_50_1_1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed must be non-negative, not -1" in err[0]
    assert not out.exists()


def test_solve_rejects_a_negative_seed(tmp_path, toy_instance_file, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed" in err[0] and "-1" in err[0]
    assert not out.exists()


def test_experiment_accepts_a_negative_base_seed(tmp_path, small_suite_dir):
    # the runs' seeds come from run_seed, which hashes the base seed
    out = tmp_path / "exp"
    assert main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "esa@p4", "--runs", "1",
         "--seed", "-1", "--jobs", "1", "--out", str(out)]
    ) == 0
    runs = stats.ExperimentReport.from_csv((out / "runs.csv").read_text()).runs
    assert len(runs) == 2 and all(run.error is None and run.seed >= 0 for run in runs)


@pytest.mark.parametrize(
    "settings, named",
    [
        (["--runs", "0"], "runs"),
        (["--runs", "-1"], "runs"),
        (["--algorithms", "dfa,nope"], "nope"),
        (["--algorithms", ","], "algorithm"),
        (["--algorithms", "dfa,dfa,esa"], "'dfa'"),
        (["--jobs", "0"], "jobs"),
        (["--jobs", "-2"], "jobs"),
        (["--algorithms", "dfa@"], "'dfa@'"),
        (["--algorithms", "dfa@p"], "'dfa@p'"),
        (["--algorithms", "dfa@px"], "'dfa@px'"),
        (["--algorithms", "dfa@p0"], "'dfa@p0'"),
        (["--algorithms", "dfa@p025"], "'dfa@p025'"),
        (["--algorithms", "dfa@p+5"], "'dfa@p+5'"),
        (["--algorithms", "dfa@p2_5"], "'dfa@p2_5'"),
        (["--algorithms", "dfa@q5"], "'dfa@q5'"),
        (["--algorithms", "nope@p5"], "'nope@p5'"),
        (["--algorithms", "dfa@p25,dfa@p25"], "'dfa@p25'"),
        (["--algorithms", " , ,"], "no algorithm given"),
        (["--algorithms", "dfa@p25,dfa@p50", "--runs", "0"], "runs"),
        (["--algorithms", "dfa,dfa+"], "'dfa+'"),
        (["--algorithms", "dfa,dfa+Reloc"], "'dfa+Reloc'"),
        (["--algorithms", "dfa,dfa+reloc@p5"], "'dfa+reloc@p5'"),
        (["--algorithms", "dfa,dfa@p5+reloc+reloc"], "'dfa@p5+reloc+reloc'"),
    ],
    ids=[
        "runs-0", "runs-negative", "unknown-algorithm",
        "no-algorithm", "duplicate-algorithm", "jobs-0", "jobs-negative", "at-only", "size-missing",
        "size-x", "size-0", "size-leading-zero", "size-signed", "size-underscore", "not-p",
        "unknown-algorithm-with-size", "repeated-label", "blank-entries", "runs-0-with-sizes",
        "suffix-empty", "suffix-capital", "suffix-before-size", "suffix-twice",
    ],
)
def test_experiment_rejects_invalid_settings(
    tmp_path, small_suite_dir, capsys, monkeypatch, settings, named
):
    solved = []
    monkeypatch.setattr("rvrp.stats._run_one", solved.append)
    out = tmp_path / "exp"
    argv = ["experiment", "--suite", str(small_suite_dir), "--runs", "1", "--seed", "5",
            "--jobs", "1", "--out", str(out)]
    assert main(argv + settings) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert not out.exists()
    assert not solved


def test_experiment_rejects_an_instance_listed_twice(tmp_path, small_suite_dir, capsys):
    manifest = small_suite_dir / "suite-manifest.json"
    data = json.loads(manifest.read_text())
    data["instances"].append(data["instances"][0])
    manifest.write_text(json.dumps(data))
    out = tmp_path / "exp"
    code = main(["experiment", "--suite", str(small_suite_dir), "--runs", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'toy_a'" in err[0]
    assert not out.exists()


def test_experiment_rejects_an_empty_suite(tmp_path, capsys):
    (tmp_path / "suite-manifest.json").write_text('{"seed": 1, "instances": []}')
    assert main(["experiment", "--suite", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "nonempty" in err[0]


def test_stats_recomputes_from_csv(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p10,ea@p10,esa@p10",
         "--runs", "2", "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    capsys.readouterr()
    stats_json = tmp_path / "stats.json"
    assert main(["stats", str(out / "runs.csv"), "--out", str(stats_json)]) == 0
    text = capsys.readouterr().out
    assert "Friedman statistic" in text
    report = json.loads((out / "report.json").read_text())
    assert json.loads(stats_json.read_text()) == {"friedman": report["friedman"], "holm": report["holm"]}


def test_stats_reads_a_runs_csv_saved_with_a_bom(tmp_path, small_suite_dir, capsys):
    # a spreadsheet may re-save runs.csv with a UTF-8 byte-order mark, which
    # must not glue itself to the first column's name
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p10,esa@p10",
         "--runs", "2", "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    capsys.readouterr()
    saved = tmp_path / "saved.csv"
    saved.write_bytes(b"\xef\xbb\xbf" + (out / "runs.csv").read_bytes())
    assert main(["stats", str(out / "runs.csv")]) == 0
    plain = capsys.readouterr().out.split("\n", 2)[2]  # after the two header lines
    assert main(["stats", str(saved)]) == 0
    assert capsys.readouterr().out.split("\n", 2)[2] == plain


@pytest.mark.parametrize(
    "algorithms", ["dfa@p10,esa@p10", "dfa@p10", "dfa@p2,dfa@p3"], ids=["tests", "no-tests", "sizes"]
)
def test_stats_prints_the_experiments_rank_section(tmp_path, small_suite_dir, capsys, algorithms):
    # rvrp stats prints all of tables.txt, byte for byte: a run's times are
    # kept to 3 decimals, which runs.csv writes and reads back exactly
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", algorithms, "--runs", "2",
         "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    capsys.readouterr()
    assert main(["stats", str(out / "runs.csv")]) == 0
    printed = capsys.readouterr().out.split("\n", 2)[2]  # after the two header lines
    assert printed == (out / "tables.txt").read_text()


def test_stats_out_without_tests_writes_nulls(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p8", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    stats_json = tmp_path / "stats.json"
    assert main(["stats", str(out / "runs.csv"), "--out", str(stats_json)]) == 0
    assert "No statistical tests" in capsys.readouterr().out
    assert json.loads(stats_json.read_text()) == {"friedman": None, "holm": None}


def test_stats_out_to_an_unwritable_path(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p8", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    capsys.readouterr()
    stats_json = out / "runs.csv" / "stats.json"  # under a file
    code = main(["stats", str(out / "runs.csv"), "--out", str(stats_json)])
    _assert_one_io_error(code, capsys, stats_json)


@pytest.mark.parametrize("under_a_file", [False, True], ids=["file", "under-a-file"])
def test_experiment_rejects_an_out_that_cannot_be_a_directory(
    tmp_path, small_suite_dir, capsys, monkeypatch, under_a_file
):
    solved = []
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name))
    blocker = tmp_path / "exp"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under_a_file else blocker
    code = main(["experiment", "--suite", str(small_suite_dir), "--runs", "1", "--out", str(out)])
    _assert_one_io_error(code, capsys, out)
    assert solved == []
    assert blocker.read_text() == "not a directory\n"


def test_experiment_reports_a_failed_write(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    (out / "report.json").mkdir(parents=True)
    code = main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa@p8", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--out", str(out)]
    )
    _assert_one_io_error(code, capsys, out)


@pytest.mark.parametrize("last_read", ["# rvrp experiment", "#   out = "], ids=["first-line", "header"])
def test_experiment_exits_2_when_its_reader_closes_stdout(tmp_path, last_read):
    # run unbuffered, so each line reaches the reader as it is printed; the
    # reader leaves while the grid (some 0.2 s of solves) runs, and the
    # command's next print finds the pipe closed
    instance = generator.small_instance(40, cluster_sizes=(4,) * 10, name="forty")
    generator.write_suite([instance], tmp_path / "suite", seed=5)
    out = tmp_path / "exp"
    argv = ["experiment", "--suite", str(tmp_path / "suite"), "--algorithms", "dfa@p10,ea@p10,esa@p10",
            "--runs", "2", "--jobs", "1", "--seed", "1", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(rvrp.__file__).parents[1])}
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "rvrp.cli", *argv], stdout=subprocess.PIPE, stderr=err,
            env=env, text=True,
        )
        while not proc.stdout.readline().startswith(last_read):
            pass
        proc.stdout.close()
        code = proc.wait(timeout=300)
    assert code == 2
    assert (tmp_path / "stderr.txt").read_text() == ""  # no traceback, no flush error at exit
    if last_read == "#   out = ":  # the results are written before the tables are printed
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "runs.csv", "tables.txt", "timing.json"]


@pytest.mark.parametrize("command", ["generate", "solve", "export-geojson", "stats"])
def test_a_failed_write_is_one_error_line(tmp_path, toy_instance_file, capsys, command):
    solution = tmp_path / "sol.json"
    main(["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p5", "--out", str(solution)])
    capsys.readouterr()
    runs = tmp_path / "runs.csv"
    runs.write_text(",".join(stats.CSV_COLUMNS) + "\ntoy,dfa,0,1,100.0,0.1,0.1,2\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out.json"
    argv = {
        "generate": ["--seed", "7", "--only", "Osaba_50_1_1"],
        "solve": [str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p5"],
        "export-geojson": [str(toy_instance_file), str(solution)],
        "stats": [str(runs)],
    }[command]
    code = main([command, *argv, "--out", str(out)])
    # the error names the file in the way, by jsonio.require_directory's rule
    err = _assert_one_io_error(code, capsys, blocker)
    assert err.startswith("cannot write ")
    assert err.endswith(f": {blocker} is not a directory\n")
    assert blocker.read_text() == "not a directory\n"


def test_export_geojson(tmp_path, toy_instance_file, capsys):
    sol_path = tmp_path / "sol.json"
    main(
        ["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p15",
         "--out", str(sol_path)]
    )
    geo_path = tmp_path / "routes.geojson"
    assert main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(geo_path)]
    ) == 0
    geo = json.loads(geo_path.read_text())
    inst = Instance.load(toy_instance_file)
    points = [f for f in geo["features"] if f["geometry"]["type"] == "Point"]
    lines = [f for f in geo["features"] if f["geometry"]["type"] == "LineString"]
    assert geo["type"] == "FeatureCollection"
    assert len(points) == inst.n_customers + 1
    assert geo["properties"]["vehicles"] == len(lines)
    depot_points = [p for p in points if p["properties"]["is_depot"]]
    assert len(depot_points) == 1 and depot_points[0]["properties"]["cluster"] == 0
    sol = decode(json.loads(sol_path.read_text())["encoding"], inst)
    for r, (line, route) in enumerate(zip(lines, sol.routes)):
        assert len(line["geometry"]["coordinates"]) == len(route) + 2
        assert line["properties"] == {
            "route_index": r,
            "cost_s": round(route_cost(route, inst), 2),
            "max_load": max(route_loads(route, inst)),
        }


def test_export_geojson_writes_the_load_of_an_overloaded_route(tmp_path, toy_instance_file, capsys):
    # the toy's capacity holds one cluster per route; both on one route overflow it
    inst = Instance.load(toy_instance_file)
    route = [c for members in inst.clusters.values() for c in members]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"encoding": route}))
    geo_path = tmp_path / "routes.geojson"
    assert main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(geo_path)]
    ) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: exported solution is infeasible: ") and "capacity-exceeded" in err
    features = json.loads(geo_path.read_text())["features"]
    (line,) = [f for f in features if f["geometry"]["type"] == "LineString"]
    assert line["properties"]["max_load"] == max(route_loads(route, inst)) > inst.capacity


def test_export_geojson_warns_of_an_infeasible_solution(tmp_path, toy_instance_file, capsys):
    inst = Instance.load(toy_instance_file)
    sol_path = tmp_path / "sol.json"
    # one route per customer splits both clusters across routes
    alone = [x for c in inst.customers for x in (0, c)][1:]
    sol_path.write_text(json.dumps({"encoding": alone}))
    geo_path = tmp_path / "routes.geojson"
    assert main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(geo_path)]
    ) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: exported solution is infeasible: ") and "cluster-split" in err
    assert geo_path.exists()


def test_export_geojson_rejects_mismatched_solution(tmp_path, toy_instance_file):
    other = generator.small_instance(26, cluster_sizes=(3, 4), name="other")
    other_path = other.save(tmp_path / "other.json")
    sol_path = tmp_path / "sol.json"
    main(["solve", str(other_path), "--seed", "1", "--algorithm", "dfa@p10", "--out", str(sol_path)])
    assert main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(tmp_path / "x.json")]
    ) == 2


def _assert_one_io_error(code, capsys, path) -> str:
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(path) in err
    return err


INF = "<1e400>"  # written as the JSON number 1e400, which reads as infinity


HUGE = 10**400  # a JSON integer of 401 digits, too large for a float


def _with_node_field(field, value):
    def edit(data: dict) -> dict:
        nodes = [dict(n) for n in data["nodes"]]
        nodes[1][field] = value
        return {**data, "nodes": nodes}

    return edit


def _without_field(field):
    return lambda data: {key: value for key, value in data.items() if key != field}


def _without_node_field(field):
    def edit(data: dict) -> dict:
        nodes = [dict(n) for n in data["nodes"]]
        del nodes[1][field]
        return {**data, "nodes": nodes}

    return edit


# every instance file carried the peak window until it became a constant
RETIRED_WINDOW = "the instance has the unknown field 'peak_window_s'"

# a key that _write_edited writes without this prefix, so that it repeats a
# key the document already holds
AGAIN = "<again>"


def _with_peak_cost(value):
    def edit(data: dict) -> dict:
        peak = [list(row) for row in data["cost_peak"]]
        peak[1][2] = value
        return {**data, "cost_peak": peak}

    return edit


MALFORMED_INSTANCES = pytest.mark.parametrize(
    "edit, named",
    [
        (lambda data: [1, 2], "the instance is [1, 2], not an object"),
        (lambda data: {**data, "capacity": INF}, "capacity"),
        (_with_node_field("delivery", INF), "delivery"),
        (_with_node_field("x", HUGE), "x"),
        (_with_peak_cost(HUGE), "cost_peak"),
        (lambda data: {**data, "capacity": 240.9}, "capacity"),
        (_with_node_field("delivery", 10.5), "delivery"),
        # JSON strings and booleans are not numbers, even where int() or
        # float() would parse them
        (lambda data: {**data, "capacity": "240"}, "capacity"),
        (_with_node_field("x", "1e3"), "x"),
        (_with_node_field("delivery", True), "delivery"),
        (_with_node_field("cluster", False), "cluster"),
        (_with_peak_cost("12.5"), "cost_peak"),
        (lambda data: {**data, "forbidden": [[True, 2]]}, "forbidden"),
        (lambda data: {**data, "name": [1]}, "name"),
        # a value of the wrong shape: a number where a row, a node or an arc
        # belongs, and an arc of three node ids
        (lambda data: {**data, "cost_offpeak": [5, *data["cost_offpeak"][1:]]}, "cost_offpeak"),
        (lambda data: {**data, "nodes": [data["nodes"][0], 5, *data["nodes"][2:]]}, "nodes"),
        (lambda data: {**data, "forbidden": [[1, 2, 3]]}, "forbidden"),
        # a number where a whole array belongs
        (lambda data: {**data, "nodes": 5}, "nodes"),
        (lambda data: {**data, "cost_offpeak": 5}, "cost_offpeak"),
        (lambda data: {**data, "cost_peak": 5}, "cost_peak"),
        (lambda data: {**data, "forbidden": 5}, "forbidden"),
        # node ids index lists: a negative id would wrap, a huge one allocate
        (_with_node_field("id", -1), "nodes"),
        (_with_node_field("id", 10**9), "nodes"),
        # a required field left out
        (_without_field("capacity"), "no 'capacity'"),
        (_without_node_field("x"), "nodes[1] has no 'x'"),
        # an instance file holds its own costs; nothing rebuilds them
        (_without_field("cost_offpeak"), "the instance has no 'cost_offpeak'"),
        (_without_field("cost_peak"), "the instance has no 'cost_peak'"),
        # no field has a default: a file gives its forbidden arcs
        (_without_field("forbidden"), "the instance has no 'forbidden'"),
        # a file written while instances had a working day, a day start or a
        # peak window is refused by name, before any value of it is read
        (lambda data: {**data, "day_end_s": 32400}, "the instance has the unknown field 'day_end_s'"),
        (lambda data: {**data, "day_start_s": 0}, "the instance has the unknown field 'day_start_s'"),
        (lambda data: {**data, "peak_window_s": [7200, 14400]}, RETIRED_WINDOW),
        (lambda data: {**data, "peak_window_s": [7200]}, RETIRED_WINDOW),
        (lambda data: {**data, "peak_window_s": []}, RETIRED_WINDOW),
        (lambda data: {**data, "peak_window_s": [7200, 14400, 20000]}, RETIRED_WINDOW),
        (lambda data: {**data, "peak_window_s": ["7200", 14400]}, RETIRED_WINDOW),
        (lambda data: {**data, "peak_window_s": 7200}, RETIRED_WINDOW),
        # a misspelled field is refused, not read as its default or ignored
        (lambda data: {**_without_field("forbidden")(data), "forbiden": data["forbidden"]},
         "the instance has the unknown field 'forbiden'"),
        (_with_node_field("pick_up", 3), "nodes[1] has the unknown field 'pick_up'"),
        # a repeated key is refused, not read as its last value
        (lambda data: {AGAIN + "capacity": 5, **data}, "the document repeats the key 'capacity'"),
        (_with_node_field(AGAIN + "pickup", 99), "the document repeats the key 'pickup'"),
        # a document too deep for json to recurse into from the CLI, and a
        # name that cannot be printed as UTF-8 (a lone surrogate)
        (lambda data: DEEP, NESTED_TOO_DEEPLY),
        (lambda data: {**data, "name": "\ud800x"}, "name is '\\ud800x', which UTF-8 cannot encode"),
    ],
    ids=["non-object",
         "capacity-1e400", "delivery-1e400", "x-401-digits", "cost-401-digits",
         "capacity-240.9", "delivery-10.5", "capacity-string", "x-string",
         "delivery-true", "cluster-false", "cost-string", "forbidden-true",
         "name-list", "cost-row-number", "node-number",
         "forbidden-triple", "nodes-number", "cost-offpeak-number", "cost-peak-number",
         "forbidden-number", "node-id-negative", "node-id-1e9",
         "missing-capacity", "missing-node-x", "missing-cost-offpeak", "missing-cost-peak",
         "missing-forbidden", "day-end", "day-start", "peak-window",
         "window-one-entry", "window-empty", "window-three-entries", "window-string", "window-number",
         "unknown-field", "unknown-node-field", "repeated-key", "repeated-node-key", "nested-990-deep",
         "name-lone-surrogate"],
)


def _write_edited(source, path, edit) -> None:
    data = edit(json.loads(source.read_text()))
    text = json.dumps(data).replace(f'"{INF}"', "1e400").replace(f'"{AGAIN}', '"').replace(f'"{DEEP}"', DEEP_TEXT)
    path.write_text(text + "\n")


@MALFORMED_INSTANCES
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_validate_and_solve_reject_malformed_instance_file(
    tmp_path, toy_instance_file, capsys, command, edit, named
):
    path = tmp_path / "bad.json"
    _write_edited(toy_instance_file, path, edit)
    out = tmp_path / "sol.json"
    args = [command, str(path)] + (["--out", str(out)] if command == "solve" else [])
    assert named in _assert_one_io_error(main(args), capsys, path)
    assert not out.exists()


def _with_costs_near_the_float_limit(data: dict) -> dict:
    # finite entries whose sums are not: every route would price inf
    size = len(data["nodes"])
    costs = [[0.0 if a == b else 1e308 + (a * size + b) * 1e292 for b in range(size)] for a in range(size)]
    return {**data, "cost_offpeak": costs, "cost_peak": costs}


@pytest.mark.parametrize(
    "edit, named",
    [
        (_with_costs_near_the_float_limit, "['cost-overflow', 'cost-overflow']"),
    ],
    ids=["costs-near-1e308"],
)
def test_solve_refuses_numbers_that_overflow_the_clock_or_the_costs(tmp_path, capsys, edit, named):
    # the file passed validation, and solve then died with a traceback (no
    # route priced below inf)
    clean = generator.small_instance(3, cluster_sizes=(2, 2)).save(tmp_path / "clean.json")
    path = tmp_path / "bad.json"
    _write_edited(clean, path, edit)
    out = tmp_path / "sol.json"
    code = main(["solve", str(path), "--algorithm", "esa@p3", "--seed", "1", "--out", str(out)])
    assert _assert_one_io_error(code, capsys, path).rstrip() == f"invalid instance {path}: {named}"
    assert not out.exists()


def test_validate_accepts_integral_float_in_integer_field(tmp_path, toy_instance_file, capsys):
    path = tmp_path / "float.json"
    _write_edited(toy_instance_file, path, lambda data: {**data, "capacity": 240.0})
    assert main(["validate", str(path)]) == 0
    assert ": ok" in capsys.readouterr().out
    assert Instance.load(path).capacity == 240


@pytest.mark.parametrize(
    "content, named",
    [
        # decode holds the one shape rule of an encoding
        ('{"encoding": 5}', "non-array-encoding: 5 is not a list or a tuple"),
        ("[1, 2]", "the solution is [1, 2], not an object"),
        ("{}", "the solution has no 'encoding'"),
        ('{"encoding": [1], "encoding": [2]}', "the document repeats the key 'encoding'"),
        (DEEP_TEXT, NESTED_TOO_DEEPLY),
    ],
    ids=["encoding-int", "list", "no-encoding", "repeated-encoding", "nested-990-deep"],
)
def test_export_geojson_rejects_malformed_solution(tmp_path, toy_instance_file, capsys, content, named):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(content + "\n")
    code = main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(tmp_path / "x.json")]
    )
    assert _assert_one_io_error(code, capsys, sol_path).endswith(f": {named}\n")


@pytest.mark.parametrize(
    "bad, named",
    [
        (lambda enc: [*enc[:-1], enc[-1] + 0.9], "is {last}.9"),
        (lambda enc: [str(v) for v in enc], "entry 0 is '{first}'"),
        (lambda enc: [*enc[:-1], True], "is True"),
    ],
    ids=["float", "strings", "boolean"],
)
def test_export_geojson_rejects_non_integer_encoding(tmp_path, toy_instance_file, capsys, bad, named):
    sol_path = tmp_path / "sol.json"
    main(["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p5", "--out", str(sol_path)])
    data = json.loads(sol_path.read_text())
    encoding = data["encoding"]
    data["encoding"] = bad(encoding)
    sol_path.write_text(json.dumps(data) + "\n")
    capsys.readouterr()
    geo_path = tmp_path / "x.json"
    code = main(["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(geo_path)])
    err = _assert_one_io_error(code, capsys, sol_path)
    assert named.format(first=encoding[0], last=encoding[-1]) in err
    assert not geo_path.exists()


CSV_HEADER = "instance,algorithm,run,seed,cost,time_s,convergence_s,vehicles\n"
NON_FINITE_RUNS = CSV_HEADER + (
    "A,dfa,0,1,{a},0.1,0.0,2\nA,esa,0,2,5,0.1,0.0,2\nC,dfa,0,3,{c},0.1,0.0,2\nC,esa,0,4,2,0.1,0.0,2\n"
)


@pytest.mark.parametrize(
    "content, named",
    [
        (CSV_HEADER.replace("cost,", "") + "t,dfa,0,1,0.1,0.0,2\n", "'cost'"),
        (CSV_HEADER + "t,dfa,0,1,abc,0.1,0.0,2\n", "'abc'"),
        (NON_FINITE_RUNS.format(a="nan", c="inf"), "line 2 (A/dfa)"),
        (NON_FINITE_RUNS.format(a="1", c="-inf"), "line 4 (C/dfa)"),
        (CSV_HEADER.encode() + b"t\xff,dfa,0,1,1.5,0.1,0.0,2\n", "utf-8"),
        (CSV_HEADER + "t,dfa,0,1,1.5,inf,0.0,2\n", "line 2 (t/dfa) has time_s inf"),
        (CSV_HEADER, "no runs"),
        (CSV_HEADER + "t,dfa,0,1,1.5,0.1,0.0,2\nt,esa,0\n", "line 3 has 3 fields"),
        (
            CSV_HEADER + "t,dfa,0,1,1.5,0.1,0.0,2\nt,dfa,1,2,1.5,0.1,0.0,2\n" * 2,
            "line 4 (t/dfa) repeats run 0 of line 2",
        ),
        # read as the last column, the second cost would rank y first
        (
            CSV_HEADER.replace("\n", ",cost\n") + "t,x,0,1,1.0,0.1,0.0,2,9.0\nt,y,0,2,2.0,0.1,0.0,2,0.5\n",
            "the header has 2 'cost' columns, not one",
        ),
        # the cells (a/b, c) and (a, b/c) would share the report.json key a/b/c
        (CSV_HEADER + "a/b,c,0,1,5.0,1.0,1.0,2\na,b/c,0,2,6.0,9.0,9.0,2\n", "label 'b/c'"),
        (CSV_HEADER + "t" * 200_000 + ",dfa,0,1,1.5,0.1,0.0,2\n", "line 2: field larger than field limit (131072)"),
        # values csv_text never writes: read, they gave runs_per_cell -2 and
        # a best found with -2 vehicles
        (CSV_HEADER + "t,dfa,-3,-1,1.5,0.1,0.0,-2\n", "line 2 (t/dfa) has run -3, below 0"),
        (CSV_HEADER + "t,dfa,0,-1,1.5,0.1,0.0,2\n", "line 2 (t/dfa) has seed -1, below 0"),
        (CSV_HEADER + "t,dfa,0,1,-1.5,0.1,0.0,2\n", "line 2 (t/dfa) has cost -1.5, below 0"),
        (CSV_HEADER + "t,dfa,0,1,1.5,-0.1,0.0,2\n", "line 2 (t/dfa) has time_s -0.1, below 0"),
        (CSV_HEADER + "t,dfa,0,1,1.5,0.1,-0.001,2\n", "line 2 (t/dfa) has convergence_s -0.001, below 0"),
        (CSV_HEADER + "t,dfa,0,1,1.5,0.1,0.0,2\nt,dfa,1,2,1.5,0.1,0.0,0\n", "line 3 (t/dfa) has vehicles 0, below 1"),
        (CSV_HEADER + "t,dfa,0,1,1.5,0.1,0.0,-2\n", "line 2 (t/dfa) has vehicles -2, below 1"),
    ],
    ids=[
        "no-cost-column", "cost-not-a-number", "cost-nan", "cost-inf", "not-utf-8", "time-inf",
        "header-only", "short-row", "repeated-run", "repeated-cost-column", "slash-in-label",
        "field-too-large", "run-negative", "seed-negative", "cost-negative", "time-negative",
        "convergence-negative", "vehicles-0", "vehicles-negative",
    ],
)
def test_stats_rejects_malformed_csv(tmp_path, capsys, content, named):
    # a NaN or infinite cost would be ranked as if it were a measurement
    path = tmp_path / "runs.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert named in _assert_one_io_error(main(["stats", str(path)]), capsys, path)


@MALFORMED_INSTANCES
def test_experiment_rejects_malformed_instance_file(tmp_path, small_suite_dir, capsys, edit, named):
    path = small_suite_dir / "toy_a.json"
    _write_edited(path, path, edit)
    code = main(["experiment", "--suite", str(small_suite_dir), "--out", str(tmp_path / "o")])
    # the error line names the malformed file, not just its suite
    assert named in _assert_one_io_error(code, capsys, f"cannot read instance {path}: ")
    assert not (tmp_path / "o").exists()


def test_header_prints_resolved_seed(tmp_path, toy_instance_file, capsys):
    main(["solve", str(toy_instance_file), "--algorithm", "dfa@p10", "--out", str(tmp_path / "s.json")])
    captured = capsys.readouterr().out
    header_line = next(l for l in captured.splitlines() if "seed =" in l)
    seed = int(header_line.split("=")[1])
    assert seed >= 0


def test_experiment_all_cells_failed_exit_code(tmp_path):
    # a cluster whose every internal arc is forbidden cannot be ordered, so
    # validation fails every run (and hence every cell)
    inst = generator.small_instance(27, cluster_sizes=(3, 3), name="doomed")
    data = inst.to_dict()
    members = list(inst.clusters[1])
    data["forbidden"] = [[i, j] for i in members for j in members if i != j]
    broken_dir = tmp_path / "suite"
    broken_dir.mkdir()
    (broken_dir / "doomed.json").write_text(json.dumps(data))
    (broken_dir / "suite-manifest.json").write_text(
        json.dumps({"seed": 1, "instances": [{"name": "doomed", "file": "doomed.json"}]})
    )
    code = main(
        ["experiment", "--suite", str(broken_dir), "--algorithms", "dfa@p5,ea@p5,esa@p5", "--runs", "1",
         "--seed", "2", "--jobs", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 5


def test_generate_without_seed_prints_random_one(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "b"), "--only", "Osaba_50_1_1"]) == 0
    header = capsys.readouterr().out
    seed_line = next(l for l in header.splitlines() if "seed =" in l)
    assert int(seed_line.split("=")[1].strip()) >= 0


def test_experiment_partial_failure_still_reports(tmp_path):
    good = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="good")
    doomed = generator.small_instance(27, cluster_sizes=(3, 3), name="doomed")
    data = doomed.to_dict()
    members = list(doomed.clusters[1])
    data["forbidden"] = [[i, j] for i in members for j in members if i != j]
    suite = tmp_path / "suite"
    suite.mkdir()
    good.save(suite / "good.json")
    (suite / "doomed.json").write_text(json.dumps(data))
    (suite / "suite-manifest.json").write_text(
        json.dumps({"seed": 1, "instances": [
            {"name": "good", "file": "good.json"},
            {"name": "doomed", "file": "doomed.json"},
        ]})
    )
    code = main(
        ["experiment", "--suite", str(suite), "--algorithms", "dfa@p5,ea@p5,esa@p5", "--runs", "1",
         "--seed", "2", "--jobs", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["cells"]["good/dfa@p5"]["runs"] == 1
    assert report["cells"]["doomed/dfa@p5"]["runs"] == 0
    assert report["cells"]["doomed/dfa@p5"]["errors"]


def test_experiment_never_solves_an_invalid_instance(tmp_path, monkeypatch):
    # a negated off-peak matrix is rejected by `rvrp solve`; the experiment
    # must reject it too, not rank the negative costs it would find
    good = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="good")
    data = generator.small_instance(22, cluster_sizes=(3, 3), name="neg").to_dict()
    data["cost_offpeak"] = [[-c for c in row] for row in data["cost_offpeak"]]
    neg = Instance.from_dict(data)
    generator.write_suite([good, neg], tmp_path / "suite", seed=1)
    solved = []
    real_solve = stats.solve
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name) or real_solve(inst, cfg))
    code = main(
        ["experiment", "--suite", str(tmp_path / "suite"), "--algorithms", "dfa@p5,esa@p5",
         "--runs", "2", "--seed", "2", "--jobs", "1",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert set(solved) == {"good"}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for alg in ("dfa@p5", "esa@p5"):
        cell = report["cells"][f"neg/{alg}"]
        assert cell["runs"] == 0 and cell["mean_cost"] is None
        assert len(cell["errors"]) == 2
        assert all(e.endswith("invalid instance: ['negative-cost']") for e in cell["errors"])
        assert report["cells"][f"good/{alg}"]["runs"] == 2
    assert "neg" not in report["best_found"]
    assert "friedman" not in report


def test_depot_only_instance_is_invalid(tmp_path, capsys, monkeypatch):
    # no customers: solve used to die in termination_budget with exit 1
    good = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="good")
    data = generator.small_instance(22, cluster_sizes=(3, 3), name="empty").to_dict()
    data.update(nodes=data["nodes"][:1], cost_offpeak=[[0.0]], cost_peak=[[0.0]])
    empty = Instance.from_dict(data)
    manifest = generator.write_suite([good, empty], tmp_path / "suite", seed=1)
    path = manifest.parent / "empty.json"
    assert main(["validate", str(path)]) == 1
    assert "violation no-customers" in capsys.readouterr().out
    out = tmp_path / "sol.json"
    code = main(["solve", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and "no-customers" in err
    assert not out.exists()
    solved = []
    real_solve = stats.solve
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name) or real_solve(inst, cfg))
    code = main(
        ["experiment", "--suite", str(manifest.parent), "--algorithms", "dfa@p5,esa@p5", "--runs", "1", "--seed", "2",
         "--jobs", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 0 and solved == ["good", "good"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for alg in ("dfa@p5", "esa@p5"):
        assert report["cells"][f"empty/{alg}"]["errors"][0].endswith("invalid instance: ['no-customers']")


def _with_non_finite_coordinates(data: dict) -> dict:
    nodes = [dict(n) for n in data["nodes"]]
    nodes[1]["x"] = float("nan")  # written as the token NaN, which json reads back
    nodes[2]["y"] = INF
    return {**data, "nodes": nodes}


def test_non_finite_coordinates_are_invalid(tmp_path, capsys, monkeypatch):
    # they passed validation, so that solve and experiment took the file
    clean = generator.small_instance(21, cluster_sizes=(3, 3), name="bad").save(tmp_path / "clean.json")
    path = tmp_path / "bad.json"
    _write_edited(clean, path, _with_non_finite_coordinates)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "bad: violation non-finite-coordinate: node 1: (nan, " in out
    assert "bad: violation non-finite-coordinate: node 2: (" in out and ", inf)" in out
    sol = tmp_path / "sol.json"
    code = main(["solve", str(path), "--out", str(sol)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and "non-finite-coordinate" in err
    assert not sol.exists()
    good = generator.small_instance(22, cluster_sizes=(3, 3), forbidden_per_cluster=1, name="good")
    manifest = generator.write_suite([good, Instance.load(path)], tmp_path / "suite", seed=1)
    solved = []
    real_solve = stats.solve
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name) or real_solve(inst, cfg))
    code = main(
        ["experiment", "--suite", str(manifest.parent), "--algorithms", "dfa@p5", "--runs", "1", "--seed", "2",
         "--jobs", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 0 and solved == ["good"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    issues = "invalid instance: ['non-finite-coordinate', 'non-finite-coordinate']"
    assert report["cells"]["bad/dfa@p5"]["errors"][0].endswith(issues)


def test_export_geojson_rejects_non_finite_coordinates(tmp_path, capsys):
    # GeoJSON is JSON (RFC 8259), which has no NaN or Infinity token
    clean = generator.small_instance(21, cluster_sizes=(3, 3)).save(tmp_path / "clean.json")
    sol = tmp_path / "sol.json"
    assert main(["solve", str(clean), "--seed", "3", "--algorithm", "dfa@p5", "--out", str(sol)]) == 0
    path = tmp_path / "bad.json"
    _write_edited(clean, path, _with_non_finite_coordinates)
    capsys.readouterr()
    geo = tmp_path / "routes.geojson"
    code = main(["export-geojson", str(path), str(sol), "--out", str(geo)])
    assert "non-finite-coordinate" in _assert_one_io_error(code, capsys, path)
    assert not geo.exists()


# what the property sets a node field to: numbers out of range, not integral
# or not finite, and a JSON value of every other type
NODE_FIELD_VALUES = [-1, 0, 2.5, 10**9, HUGE, float("nan"), INF, "1", True, None, [], {}]


MUTATIONS = [
    "depot-last", "node-field", "drop-node", "duplicate-node", "swap-fields", "id-clash", "cluster-merge",
    "extra-forbidden",
]


@st.composite
def _mutated(draw, data: dict) -> dict:
    """``data`` with one of the MUTATIONS: the depot moved last, one node
    field set to one of NODE_FIELD_VALUES, a node dropped, a node duplicated
    at the end, the values of two top-level fields swapped, one node given
    another's id, one cluster's nodes relabelled as another's, or one more
    ``forbidden`` pair drawn over the node ids and an unknown id (a self-pair
    and the depot included)."""
    nodes = [dict(n) for n in data["nodes"]]
    k = draw(st.integers(0, len(nodes) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    event(f"mutation {kind}")
    if kind == "swap-fields":
        a, b = draw(st.lists(st.sampled_from(sorted(data)), min_size=2, max_size=2, unique=True))
        return {**data, a: data[b], b: data[a]}
    if kind == "extra-forbidden":
        ids = [n["id"] for n in nodes]
        pair = draw(st.lists(st.sampled_from([*ids, max(ids) + 1]), min_size=2, max_size=2))
        return {**data, "forbidden": [*data["forbidden"], pair]}
    if kind == "depot-last":
        nodes.append(nodes.pop(0))
    elif kind == "node-field":
        nodes[k][draw(st.sampled_from(sorted(nodes[k])))] = draw(st.sampled_from(NODE_FIELD_VALUES))
    elif kind == "drop-node":
        del nodes[k]
    elif kind == "duplicate-node":
        nodes.append(nodes[k])
    elif kind == "id-clash":
        j = draw(st.integers(0, len(nodes) - 2))
        nodes[k]["id"] = nodes[j + (j >= k)]["id"]  # any node but k
    else:  # cluster-merge: of CLEAN_SHAPES, (8, 8) merges to the cap of 16 members and (9, 8) past it
        labels = sorted({n["cluster"] for n in nodes[1:]})
        gone, kept = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
        for n in nodes:
            n["cluster"] = kept if n["cluster"] == gone else n["cluster"]
        event(f"merged cluster of {sum(n['cluster'] == kept for n in nodes)} members")
    return {**data, "nodes": nodes}


# the clean files the property mutates: (seed, cluster sizes) of small_instance;
# the last two merge a cluster at instance.MAX_PROVED_MEMBERS and one past it
CLEAN_SHAPES = [(21, (3, 3)), (8, (4, 2, 2)), (5, (8, 8)), (9, (9, 8))]


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_solve_and_export_take_only_what_validate_accepts(data):
    # every file ends in a documented exit, never a traceback; the files of an
    # example go to a temporary directory, since a function-scoped fixture
    # would be shared by all examples
    seed, sizes = data.draw(st.sampled_from(CLEAN_SHAPES))
    clean = generator.small_instance(seed, cluster_sizes=sizes, forbidden_per_cluster=1)
    mutated = data.draw(_mutated(clean.to_dict()))
    entry = data.draw(st.sampled_from(["dfa@p3", "esa@p3+reloc"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean_path = clean.save(tmp / "clean.json")
        clean_solution = tmp / "clean.solution.json"
        assert main(["solve", str(clean_path), "--algorithm", entry, "--seed", "1", "--out", str(clean_solution)]) == 0
        path = tmp / "mutated.json"
        _write_edited(clean_path, path, lambda _: mutated)
        validated = main(["validate", str(path)])
        solution = tmp / "mutated.solution.json"
        solved = main(["solve", str(path), "--algorithm", entry, "--seed", "1", "--out", str(solution)])
        geo = tmp / "routes.geojson"
        exported = main(["export-geojson", str(path), str(clean_solution), "--out", str(geo)])
        event(f"validate {validated}, solve {solved}, export-geojson {exported}")
        assert {validated, solved, exported} <= {0, 1, 2}
        if validated != 0:
            assert solved != 0 and exported != 0
        assert geo.exists() == (exported == 0)
        if solved == 0:
            inst = Instance.load(path)
            assert check_feasible(decode(json.loads(solution.read_text())["encoding"], inst), inst).feasible


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda nodes: [*nodes[1:], nodes[0]], "depot-invalid"),
        (lambda nodes: [*nodes, nodes[0]], "duplicate-node-id"),
        (lambda nodes: nodes[1:], "depot-invalid"),
    ],
    ids=["depot-last", "depot-duplicated-at-end", "depot-removed"],
)
def test_export_geojson_refuses_a_misplaced_depot(tmp_path, capsys, edit, named):
    # the renderer draws each route from the first node listed, so a file
    # whose first node is not the one depot must not reach it
    clean = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1).save(tmp_path / "clean.json")
    sol = tmp_path / "sol.json"
    assert main(["solve", str(clean), "--seed", "3", "--algorithm", "dfa@p5", "--out", str(sol)]) == 0
    path = tmp_path / "bad.json"
    _write_edited(clean, path, lambda data: {**data, "nodes": edit(data["nodes"])})
    capsys.readouterr()
    geo = tmp_path / "routes.geojson"
    code = main(["export-geojson", str(path), str(sol), "--out", str(geo)])
    err = _assert_one_io_error(code, capsys, path)
    assert err.startswith(f"invalid instance {path}: [") and named in err
    assert not geo.exists()


def test_solve_emit_history(tmp_path, toy_instance_file):
    out = tmp_path / "sol.json"
    assert main(
        ["solve", str(toy_instance_file), "--seed", "3", "--algorithm", "dfa@p15", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    history = data["cost_history"]
    assert history and history[-1][1] == data["cost"]
    costs = [c for _, c in history]
    assert all(b < a for a, b in zip(costs, costs[1:]))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse(capsys):
    # every `rvrp ...` line of the README's bash blocks is a command the CLI
    # takes, so the documented study cannot go stale
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("rvrp ")]
    parser = build_parser()
    refused = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            refused.append(line)
    assert lines and not refused, capsys.readouterr().err


def _cli_options() -> set[str]:
    """Every ``--option`` that some subcommand takes, ``--help`` aside."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_every_cli_option_is_in_the_readme():
    # an option the README never names is one its reader cannot find
    readme = README.read_text(encoding="utf-8")
    options = _cli_options()
    undocumented = [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)]
    assert options and not undocumented


def test_every_readme_option_is_a_cli_option():
    # an option the README names from its CLI section on, where no other
    # tool's options appear, must be one that some subcommand takes
    readme = README.read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][\w-]*", readme[readme.index("\n## CLI\n") :]))
    assert named and not named - _cli_options()


def _exit_codes(text: str) -> list[int]:
    """The codes of a text's ``Exit codes:`` list, which ends at its first
    full stop: each number that opens the list or follows one of its commas."""
    listing = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S).group(1)
    return [int(code) for code in re.findall(r"(?:^|,)\s*(\d+)\s", listing)]


@pytest.mark.parametrize("source", ["cli-docstring", "README"])
def test_documented_exit_codes_are_the_cli_constants(source):
    # a code that no command returns, or one that the docs leave out, fails here
    text = cli.__doc__ if source == "cli-docstring" else README.read_text(encoding="utf-8")
    constants = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert _exit_codes(text) == constants

import json

import pytest

from rvrp import Instance, check_feasible, decode
from rvrp import generator, stats
from rvrp.cli import main

from conftest import make_joint_infeasible_instance


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


def test_validate_ok(toy_instance_file, capsys):
    assert main(["validate", str(toy_instance_file)]) == 0
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


def test_solve_writes_feasible_solution(tmp_path, toy_instance_file, capsys):
    out = tmp_path / "sol.json"
    code = main(
        ["solve", str(toy_instance_file), "--algorithm", "dfa", "--seed", "3",
         "--population", "15", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    inst = Instance.load(toy_instance_file)
    sol = decode(data["encoding"], inst)
    assert check_feasible(sol, inst).feasible
    assert data["vehicles"] == sol.vehicles
    assert data["routes"] == [list(r) for r in sol.routes]
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    fields = summary.split()
    assert fields[0] == "toy" and fields[1] == "dfa"
    assert len(fields) == 7


def test_solve_deterministic_bytes(tmp_path, toy_instance_file):
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(
            ["solve", str(toy_instance_file), "--seed", "3", "--population", "15",
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
            ["solve", str(path), "--algorithm", algorithm, "--seed", str(seed), "--population", "3",
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
        ["experiment", "--suite", str(small_suite_dir), "--runs", "2", "--seed", "5",
         "--jobs", "1", "--population", "10", "--out", str(out)]
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


def test_experiment_report_deterministic(tmp_path, small_suite_dir):
    reports = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        assert main(
            ["experiment", "--suite", str(small_suite_dir), "--runs", "1", "--seed", "5",
             "--jobs", "1", "--population", "8", "--out", str(out)]
        ) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_experiment_single_algorithm_has_no_tests(tmp_path, small_suite_dir):
    out = tmp_path / "exp"
    assert main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--population", "8", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert "friedman" not in report


def test_experiment_missing_manifest(tmp_path):
    assert main(["experiment", "--suite", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


def test_solve_rejects_invalid_population(tmp_path, toy_instance_file, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", str(toy_instance_file), "--population", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "population_size" in err[0]
    assert not out.exists()


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
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "esa", "--runs", "1",
         "--seed", "-1", "--jobs", "1", "--population", "4", "--out", str(out)]
    ) == 0
    runs = stats.ExperimentReport.from_csv((out / "runs.csv").read_text()).runs
    assert len(runs) == 2 and all(run.error is None and run.seed >= 0 for run in runs)


@pytest.mark.parametrize(
    "settings, named",
    [
        (["--population", "0"], "population_size"),
        (["--population", "-3"], "population_size"),
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
    ],
    ids=[
        "population-0", "population-negative", "runs-0", "runs-negative", "unknown-algorithm",
        "no-algorithm", "duplicate-algorithm", "jobs-0", "jobs-negative", "at-only", "size-missing",
        "size-x", "size-0", "size-leading-zero", "size-signed", "size-underscore", "not-p",
        "unknown-algorithm-with-size", "repeated-label", "blank-entries", "runs-0-with-sizes",
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
        ["experiment", "--suite", str(small_suite_dir), "--runs", "2", "--seed", "5",
         "--jobs", "1", "--population", "10", "--out", str(out)]
    )
    capsys.readouterr()
    stats_json = tmp_path / "stats.json"
    assert main(["stats", str(out / "runs.csv"), "--out", str(stats_json)]) == 0
    text = capsys.readouterr().out
    assert "Friedman statistic" in text
    report = json.loads((out / "report.json").read_text())
    assert json.loads(stats_json.read_text()) == {"friedman": report["friedman"], "holm": report["holm"]}


@pytest.mark.parametrize(
    "algorithms", ["dfa,esa", "dfa", "dfa@p2,dfa@p3"], ids=["tests", "no-tests", "sizes"]
)
def test_stats_prints_the_experiments_rank_section(tmp_path, small_suite_dir, capsys, algorithms):
    # rvrp stats prints all of tables.txt; runs.csv keeps times to 3
    # decimals, so a mean time may print 0.1 away from the experiment's
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", algorithms, "--runs", "2",
         "--seed", "5", "--jobs", "1", "--population", "10", "--out", str(out)]
    )
    capsys.readouterr()
    assert main(["stats", str(out / "runs.csv")]) == 0
    printed = capsys.readouterr().out.split("\n", 2)[2]  # after the two header lines
    results, rest = printed.split("\n\n", 1)
    expected_results, expected_rest = (out / "tables.txt").read_text().split("\n\n", 1)
    assert rest == expected_rest
    header, *rows = [line.split() for line in results.splitlines()]
    expected_header, *expected_rows = [line.split() for line in expected_results.splitlines()]
    assert header == expected_header
    assert [len(row) for row in rows] == [len(row) for row in expected_rows]
    for row, expected in zip(rows, expected_rows):
        for column, cell, want in zip(header, row, expected):
            if column.endswith((":time", ":conv")):
                assert abs(float(cell) - float(want)) <= 0.1 + 1e-9
            else:
                assert cell == want


def test_stats_out_without_tests_writes_nulls(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--population", "8", "--out", str(out)]
    )
    stats_json = tmp_path / "stats.json"
    assert main(["stats", str(out / "runs.csv"), "--out", str(stats_json)]) == 0
    assert "No statistical tests" in capsys.readouterr().out
    assert json.loads(stats_json.read_text()) == {"friedman": None, "holm": None}


def test_stats_out_to_an_unwritable_path(tmp_path, small_suite_dir, capsys):
    out = tmp_path / "exp"
    main(
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--population", "8", "--out", str(out)]
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
        ["experiment", "--suite", str(small_suite_dir), "--algorithms", "dfa", "--runs", "1",
         "--seed", "5", "--jobs", "1", "--population", "8", "--out", str(out)]
    )
    _assert_one_io_error(code, capsys, out)


def test_export_geojson(tmp_path, toy_instance_file, capsys):
    sol_path = tmp_path / "sol.json"
    main(
        ["solve", str(toy_instance_file), "--seed", "3", "--population", "15",
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
    for line, route in zip(lines, sol.routes):
        assert len(line["geometry"]["coordinates"]) == len(route) + 2


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
    main(["solve", str(other_path), "--seed", "1", "--population", "10", "--out", str(sol_path)])
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


def _with_peak_cost(value):
    def edit(data: dict) -> dict:
        peak = [list(row) for row in data["cost_peak"]]
        peak[1][2] = value
        return {**data, "cost_peak": peak}

    return edit


MALFORMED_INSTANCES = pytest.mark.parametrize(
    "edit, named",
    [
        (lambda data: [1, 2], ""),
        (lambda data: {**data, "peak_window_s": [7200]}, "peak_window_s"),
        (lambda data: {**data, "peak_window_s": []}, "peak_window_s"),
        (lambda data: {**data, "peak_window_s": [7200, 14400, 20000]}, "peak_window_s"),
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
        (lambda data: {**data, "peak_window_s": ["7200", 14400]}, "peak_window_s"),
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
        (lambda data: {**data, "peak_window_s": 7200}, "peak_window_s"),
        # node ids index lists: a negative id would wrap, a huge one allocate
        (_with_node_field("id", -1), "nodes"),
        (_with_node_field("id", 10**9), "nodes"),
    ],
    ids=["non-object", "window-one-entry", "window-empty", "window-three-entries",
         "capacity-1e400", "delivery-1e400", "x-401-digits", "cost-401-digits",
         "capacity-240.9", "delivery-10.5", "capacity-string", "x-string",
         "delivery-true", "cluster-false", "cost-string", "forbidden-true",
         "window-string", "name-list", "cost-row-number", "node-number",
         "forbidden-triple", "nodes-number", "cost-offpeak-number", "cost-peak-number",
         "forbidden-number", "window-number", "node-id-negative", "node-id-1e9"],
)


def _write_edited(source, path, edit) -> None:
    data = edit(json.loads(source.read_text()))
    path.write_text(json.dumps(data).replace(f'"{INF}"', "1e400") + "\n")


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


def test_validate_accepts_integral_float_in_integer_field(tmp_path, toy_instance_file, capsys):
    path = tmp_path / "float.json"
    _write_edited(toy_instance_file, path, lambda data: {**data, "capacity": 240.0})
    assert main(["validate", str(path)]) == 0
    assert ": ok" in capsys.readouterr().out
    assert Instance.load(path).capacity == 240


@pytest.mark.parametrize("content", ['{"encoding": 5}', "[1, 2]"], ids=["encoding-int", "list"])
def test_export_geojson_rejects_malformed_solution(tmp_path, toy_instance_file, capsys, content):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(content + "\n")
    code = main(
        ["export-geojson", str(toy_instance_file), str(sol_path), "--out", str(tmp_path / "x.json")]
    )
    _assert_one_io_error(code, capsys, sol_path)


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
    main(["solve", str(toy_instance_file), "--seed", "3", "--population", "5", "--out", str(sol_path)])
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
    ],
    ids=[
        "no-cost-column", "cost-not-a-number", "cost-nan", "cost-inf", "not-utf-8", "time-inf",
        "header-only", "short-row", "repeated-run",
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
    assert named in _assert_one_io_error(code, capsys, small_suite_dir)
    assert not (tmp_path / "o").exists()


def test_header_prints_resolved_seed(tmp_path, toy_instance_file, capsys):
    main(["solve", str(toy_instance_file), "--population", "10", "--out", str(tmp_path / "s.json")])
    captured = capsys.readouterr().out
    header_line = next(l for l in captured.splitlines() if "seed =" in l)
    seed = int(header_line.split("=")[1])
    assert seed >= 0


def test_experiment_all_cells_failed_exit_code(tmp_path):
    # a cluster whose every internal arc is forbidden cannot be ordered, so
    # every construction (and hence every cell) fails
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
        ["experiment", "--suite", str(broken_dir), "--runs", "1", "--seed", "2",
         "--jobs", "1", "--population", "5", "--out", str(tmp_path / "out")]
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
        ["experiment", "--suite", str(suite), "--runs", "1", "--seed", "2", "--jobs", "1",
         "--population", "5", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["cells"]["good/dfa"]["runs"] == 1
    assert report["cells"]["doomed/dfa"]["runs"] == 0
    assert report["cells"]["doomed/dfa"]["errors"]


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
        ["experiment", "--suite", str(tmp_path / "suite"), "--algorithms", "dfa,esa",
         "--runs", "2", "--seed", "2", "--jobs", "1", "--population", "5",
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert set(solved) == {"good"}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for alg in ("dfa", "esa"):
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
        ["experiment", "--suite", str(manifest.parent), "--algorithms", "dfa,esa", "--runs", "1", "--seed", "2",
         "--jobs", "1", "--population", "5", "--out", str(tmp_path / "out")]
    )
    assert code == 0 and solved == ["good", "good"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for alg in ("dfa", "esa"):
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
        ["experiment", "--suite", str(manifest.parent), "--algorithms", "dfa", "--runs", "1", "--seed", "2",
         "--jobs", "1", "--population", "5", "--out", str(tmp_path / "out")]
    )
    assert code == 0 and solved == ["good"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    issues = "invalid instance: ['non-finite-coordinate', 'non-finite-coordinate']"
    assert report["cells"]["bad/dfa"]["errors"][0].endswith(issues)


def test_export_geojson_rejects_non_finite_coordinates(tmp_path, capsys):
    # GeoJSON is JSON (RFC 8259), which has no NaN or Infinity token
    clean = generator.small_instance(21, cluster_sizes=(3, 3)).save(tmp_path / "clean.json")
    sol = tmp_path / "sol.json"
    assert main(["solve", str(clean), "--seed", "3", "--population", "5", "--out", str(sol)]) == 0
    path = tmp_path / "bad.json"
    _write_edited(clean, path, _with_non_finite_coordinates)
    capsys.readouterr()
    geo = tmp_path / "routes.geojson"
    code = main(["export-geojson", str(path), str(sol), "--out", str(geo)])
    assert "node 1 has a non-finite coordinate (nan, " in _assert_one_io_error(code, capsys, path)
    assert not geo.exists()


def test_solve_emit_history(tmp_path, toy_instance_file):
    out = tmp_path / "sol.json"
    assert main(
        ["solve", str(toy_instance_file), "--seed", "3", "--population", "15",
         "--emit-history", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    history = data["cost_history"]
    assert history and history[-1][1] == data["cost"]
    costs = [c for _, c in history]
    assert all(b < a for a, b in zip(costs, costs[1:]))

"""The DFA pulls a firefly toward a brighter one with one Hamming distance and
one firefly move, both looked up in ``rvrp.solvers`` at call time, where the
benchmark's tracer wraps them; ESA proposes without either."""

from rvrp import generator, solvers
from rvrp.solvers import SolverConfig, solve

INSTANCE = generator.small_instance(90, cluster_sizes=(3, 4, 2, 3), capacity=1000)


def _calls(monkeypatch, algorithm: str) -> dict[str, int]:
    calls = {"hamming_distance": 0, "move_firefly": 0}
    for name in calls:
        original = getattr(solvers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    solve(INSTANCE, SolverConfig(algorithm=algorithm, population_size=6, seed=1))
    return calls


def test_dfa_measures_one_distance_per_move(monkeypatch):
    calls = _calls(monkeypatch, "dfa")
    assert calls["hamming_distance"] == calls["move_firefly"] > 0


def test_esa_neither_measures_nor_moves_fireflies(monkeypatch):
    calls = _calls(monkeypatch, "esa")
    assert calls == {"hamming_distance": 0, "move_firefly": 0}

"""The ``VertexProgram.state`` contract: every program declares its
mutable state arrays, each is an ndarray after ``init``, and the health
monitor hashes only those (never a read-only graph array)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tests.test_engine
import tests.test_engine_directions
import tests.test_health
from repro._util.errors import ValidationError
from repro.algorithms.registry import create, info, iter_algorithms
from repro.behavior.run import build_engine_options
from repro.engine import health
from repro.engine.context import Context
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.health import state_arrays
from repro.engine.program import Direction, VertexProgram
from repro.experiments.config import GraphSpec
from repro.generators import powerlaw_graph

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / \
    "custom_algorithm.py"

#: A tiny problem per input domain.
SPECS = {
    "ga": GraphSpec.ga(300, 2.5, seed=3),
    "clustering": GraphSpec.clustering(300, 2.5, seed=3),
    "cf": GraphSpec.cf(200, 2.5, seed=3),
    "matrix": GraphSpec.matrix(40, seed=3),
    "grid": GraphSpec.grid(8, seed=3),
    "mrf": GraphSpec.mrf(60, seed=3),
}

REGISTERED = sorted(record.name for record in iter_algorithms())


def _load_example():
    spec = importlib.util.spec_from_file_location("custom_algorithm",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _local_programs() -> list[type]:
    """Every concrete program class defined by the tests and examples."""
    modules = (tests.test_engine, tests.test_engine_directions,
               tests.test_health, _load_example())
    return [value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, VertexProgram)
            and value is not VertexProgram
            and value.__module__ == module.__name__]


@pytest.fixture(scope="module")
def problems():
    return {domain: spec.generate() for domain, spec in SPECS.items()}


def _assert_declared_arrays(program, ctx):
    declared = type(program).state
    assert isinstance(declared, tuple)
    arrays = state_arrays(program)
    assert list(arrays) == list(declared)
    for name, arr in arrays.items():
        assert isinstance(arr, np.ndarray), name
        # Mutable state is the program's own: never a (read-only)
        # graph array or the run's cached vertex range.
        assert arr.flags.writeable, name
        assert arr is not ctx.all_vertices(), name


class TestEveryProgramDeclaresState:
    @pytest.mark.parametrize("name", REGISTERED)
    def test_registered_algorithm(self, name, problems):
        program = create(name)
        ctx = Context(problems[info(name).domain])
        program.init(ctx)
        _assert_declared_arrays(program, ctx)

    def test_local_programs_are_found(self):
        names = {cls.__name__ for cls in _local_programs()}
        assert {"Flood", "ForwardSum", "PathologicalProgram",
                "LabelPropagation"} <= names

    @pytest.mark.parametrize("cls", _local_programs(),
                             ids=lambda cls: cls.__name__)
    def test_test_and_example_program(self, cls, problems):
        assert "state" in {name for klass in cls.__mro__
                           for name in vars(klass)}
        program = cls()
        ctx = Context(problems["ga"])
        program.init(ctx)
        _assert_declared_arrays(program, ctx)


class TestUndeclaredProgramFailsLoudly:
    class Undeclared(VertexProgram):
        name = "undeclared"
        scatter_dir = Direction.NONE

        def init(self, ctx):
            self.values = np.zeros(ctx.n_vertices)
            return ctx.all_vertices()

        def gather_edge(self, ctx, nbr, center, eid):
            return self.values[nbr]

        def apply(self, ctx, vids, acc):
            pass

    class NotAnArray(Undeclared):
        name = "not-an-array"
        state = ("values", "missing")

    @pytest.mark.parametrize("policy", ["strict", "off"])
    def test_missing_declaration_names_the_program(self, policy):
        engine = SynchronousEngine(EngineOptions(health_policy=policy))
        with pytest.raises(ValidationError, match="Undeclared"):
            engine.run(self.Undeclared(), powerlaw_graph(100, 2.5, seed=1))

    def test_declared_name_must_be_an_array(self):
        with pytest.raises(ValidationError, match="'missing'"):
            SynchronousEngine().run(self.NotAnArray(),
                                    powerlaw_graph(100, 2.5, seed=1))


class TestHashedArrays:
    @pytest.mark.parametrize("name", REGISTERED)
    def test_no_read_only_array_is_hashed(self, name, problems,
                                          monkeypatch):
        hashed: list[np.ndarray] = []
        original = health._crc

        def spy(arr, crc):
            hashed.append(arr)
            return original(arr, crc)

        monkeypatch.setattr(health, "_crc", spy)
        problem = problems[info(name).domain]
        options = build_engine_options(name, {"max_iterations": 4})
        SynchronousEngine(options).run(create(name), problem)
        assert hashed
        assert all(arr.flags.writeable for arr in hashed)
        if problem.graph.n_edges:
            inv = problem.graph.inv_out_degree
            assert not any(np.shares_memory(arr, inv) for arr in hashed)

"""The stable facade surface, pinned.

``repro.api`` is the contract both the CLI and the service build on;
these golden tests make any signature change an explicit, reviewed act —
the diff shows exactly which verb moved.  The same goes for the lower-level
entry points that take an ``ExecutionConfig``: since repro 2.0 ``config=``
is their only run-time knob, and a stale keyword must fail loudly.  The
config validation errors are pinned too (they must enumerate the valid
values).
"""

import inspect

import pytest

import repro
import repro.api as api
from repro.config import EXECUTORS, ExecutionConfig, ServiceConfig

# ---------------------------------------------------------------------------
# the facade: frozen __all__ and golden signatures


GOLDEN_SIGNATURES = {
    "consolidate": (
        "(programs: 'Sequence[Program]', functions: 'Optional[FunctionTable]'"
        " = None, *, options: 'Optional[ConsolidationOptions]' = None, "
        "config: 'Optional[ExecutionConfig]' = None) -> 'ConsolidationReport'"
    ),
    "explain": (
        "(target: 'Union[QueryRegistry, Sequence[Program]]', functions: "
        "'Optional[FunctionTable]' = None, *, options: "
        "'Optional[ConsolidationOptions]' = None, config: "
        "'Optional[ExecutionConfig]' = None) -> 'dict'"
    ),
    "register": (
        "(registry: 'QueryRegistry', query: 'Union[Program, str]', *, "
        "tenant: 'str' = 'default') -> 'RegisteredQuery'"
    ),
    "run": (
        "(rows: 'Sequence[Any]', programs: 'Sequence[Program]', functions: "
        "'Optional[FunctionTable]' = None, *, consolidated: 'bool' = True, "
        "options: 'Optional[ConsolidationOptions]' = None, config: "
        "'Optional[ExecutionConfig]' = None) -> 'RunResult'"
    ),
    "unregister": "(registry: 'QueryRegistry', pid: 'str') -> 'None'",
}


def test_facade_all_is_frozen_tuple():
    assert isinstance(api.__all__, tuple)
    assert api.__all__ == ("consolidate", "explain", "register", "run", "unregister")


def test_facade_signatures_are_golden():
    for name, expected in GOLDEN_SIGNATURES.items():
        actual = str(inspect.signature(getattr(api, name)))
        assert actual == expected, f"repro.api.{name} signature drifted:\n{actual}"


def test_facade_covers_all_verbs_and_nothing_else():
    assert set(GOLDEN_SIGNATURES) == set(api.__all__)


def test_facade_exported_from_package_root():
    assert "api" in repro.__all__
    assert repro.api is api


def test_every_facade_verb_has_type_hints():
    for name in api.__all__:
        signature = inspect.signature(getattr(api, name))
        assert signature.return_annotation is not inspect.Signature.empty
        for parameter in signature.parameters.values():
            assert parameter.annotation is not inspect.Parameter.empty, (
                f"repro.api.{name} parameter {parameter.name} lost its hint"
            )


# ---------------------------------------------------------------------------
# the config-only entry points: keyword-only ``config=``, no legacy knobs


CONFIG_ENTRY_POINTS = {
    ("repro.consolidation", "consolidate_all"): (
        "(programs: 'list[Program]', functions: 'FunctionTable', *, options: "
        "'ConsolidationOptions | None' = None, order: 'str' = 'clustered', "
        "priority: 'Sequence[str] | None' = None, keep_tree: 'bool' = False, "
        "config: 'ExecutionConfig | None' = None) -> 'ConsolidationReport'"
    ),
    ("repro.naiad.linq", "from_collection"): (
        "(records: 'Sequence[Any]', *, config: 'ExecutionConfig | None' = None)"
        " -> 'Query'"
    ),
    ("repro.naiad.linq", "run_where_many"): (
        "(records: 'Sequence[Any]', programs: 'Sequence[Program]', functions: "
        "'Optional[FunctionTable]' = None, *, config: 'ExecutionConfig | None' "
        "= None) -> 'RunResult'"
    ),
    ("repro.naiad.linq", "run_where_consolidated"): (
        "(records: 'Sequence[Any]', programs: 'Sequence[Program]', functions: "
        "'Optional[FunctionTable]' = None, *, options: 'ConsolidationOptions | "
        "None' = None, config: 'ExecutionConfig | None' = None) -> "
        "'tuple[RunResult, ConsolidationReport]'"
    ),
}


@pytest.mark.parametrize(
    "module, name", sorted(CONFIG_ENTRY_POINTS), ids=lambda part: part
)
def test_config_entry_point_signatures_are_golden(module, name):
    import importlib

    actual = str(inspect.signature(getattr(importlib.import_module(module), name)))
    expected = CONFIG_ENTRY_POINTS[(module, name)]
    assert actual == expected, f"{module}.{name} signature drifted:\n{actual}"


def test_stale_positional_cost_model_is_a_type_error():
    from repro.consolidation import consolidate_all
    from repro.lang import FunctionTable, notify, program
    from repro.lang.cost import DEFAULT_COST_MODEL

    batch = [program("a", ("row",), notify("a", True))]
    with pytest.raises(TypeError):
        consolidate_all(batch, FunctionTable(), DEFAULT_COST_MODEL)


def test_package_version_matches_pyproject():
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"), re.M
    )
    assert match is not None, "pyproject.toml declares no version"
    assert repro.__version__ == match.group(1)


# ---------------------------------------------------------------------------
# config validation errors enumerate the valid values


def test_execution_config_backend_error_enumerates_choices():
    with pytest.raises(ValueError, match="choose from"):
        ExecutionConfig(backend="gpu")


def test_execution_config_executor_error_enumerates_choices():
    with pytest.raises(ValueError) as excinfo:
        ExecutionConfig(executor="fibers")
    for executor in EXECUTORS:
        assert executor in str(excinfo.value)


def test_execution_config_worker_errors_state_the_valid_range():
    with pytest.raises(ValueError, match=r"workers must be an integer >= 1, got 0"):
        ExecutionConfig(workers=0)
    with pytest.raises(ValueError, match=r"max_workers must be an integer >= 1"):
        ExecutionConfig(max_workers=-2)


def test_service_config_validation_errors_enumerate_values():
    with pytest.raises(ValueError, match=r"0\.\.65535"):
        ServiceConfig(port=70000)
    with pytest.raises(ValueError, match=r">= 1\.0"):
        ServiceConfig(rebalance_factor=0.5)
    with pytest.raises(ValueError, match=r">= 0 \(0 disables"):
        ServiceConfig(plan_cache_size=-1)


def test_service_config_is_frozen_and_evolvable():
    config = ServiceConfig()
    with pytest.raises(Exception):
        config.port = 1234  # type: ignore[misc]
    assert config.evolve(port=0).port == 0
    assert config.port == 8765

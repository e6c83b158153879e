"""The names that ``perfbench/spans.py`` rebinds to time each layer exist.

``spans.installed`` looks each target up in its owner's ``__dict__`` and
skips one that is gone with a warning only, so a rename would stop a layer
from being timed while every other test still passes.  These are the
targets that bind; the hooks of names removed earlier are not listed.
The modules that ``spans._hooks`` reads from the package are not skipped:
one that is gone fails every traced run.
"""

from types import ModuleType

import torusavg
from torusavg import cli, engine, oracle

MODULES = ("cli", "engine", "oracle", "dynsys")

TARGETS = (
    (engine, "evaluate_array"),
    (engine.DiagonalJob, "terms"),
    (engine.ArcJob, "terms"),
    (cli, "parse_scenario"),
    (cli, "run_scenario"),
    (cli, "predict"),
    (oracle, "integrate"),
)


def test_span_hook_targets_exist():
    missing = [f"torusavg.{m}" for m in MODULES
               if not isinstance(getattr(torusavg, m, None), ModuleType)]
    missing += [f"{owner.__name__}.{attr}" for owner, attr in TARGETS
                if not callable(owner.__dict__.get(attr))]
    assert missing == []

"""Each command imports only its own stack.

``repro ingest`` and ``repro query`` run no algorithm, so neither loads
numpy, :mod:`repro.core`, the baselines or the HTTP service; ``repro
serve`` loads the refresh path but not the extra strategies, provenance
or the process pool.  The package root resolves its public names on
first access, and every one of them still resolves.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.resilience
from repro.datasets import motivating_example
from repro.model.io import save_dataset

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Modules a command that runs no algorithm must not import.
ALGORITHM_STACK = {"numpy", "repro.core", "repro.baselines", "repro.serve"}

#: Modules the serving stack must not import: its refresh runs neither
#: the extra selection strategies nor provenance, and no process pool.
SERVE_EXTRAS = {
    "repro.core.variants",
    "repro.core.explain",
    "repro.parallel",
    "multiprocessing",
}


def imported_modules(tmp_path: pathlib.Path, *args: str) -> set[str]:
    """The modules ``python -X importtime ARGS`` imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_ingest_and_query_do_not_import_the_algorithms(tmp_path):
    dataset = tmp_path / "d.json"
    save_dataset(motivating_example(), dataset)
    store = str(tmp_path / "s.db")
    ingest = imported_modules(
        tmp_path, "-m", "repro", "ingest", "--store", store, "--dataset",
        str(dataset),
    )
    query = imported_modules(
        tmp_path, "-m", "repro", "query", "--store", store, "--summary"
    )
    for modules in (ingest, query):
        # The guard sees the command's own stack ...
        assert {"repro.cli", "repro.store.ledger"} <= modules
        # ... and nothing of the algorithms'.
        assert not modules & ALGORITHM_STACK


def test_serve_imports_only_the_refresh_path(tmp_path):
    modules = imported_modules(tmp_path, "-c", "import repro.cli, repro.serve")
    # The guard sees the refresh path ...
    assert {"repro.core.incestimate", "repro.stream.engine"} <= modules
    # ... and none of what it does not run.
    assert not modules & SERVE_EXTRAS


@pytest.mark.parametrize(
    "package", [repro, repro.resilience], ids=lambda package: package.__name__
)
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_root_names_are_the_defining_modules_objects():
    import repro.core
    import repro.resilience.faults
    import repro.store

    assert repro.IncEstimate is repro.core.IncEstimate
    assert repro.VoteLedger is repro.store.VoteLedger
    assert repro.FaultPlan is repro.resilience.faults.FaultPlan
    namespace: dict = {}
    exec("from repro import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(repro.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018

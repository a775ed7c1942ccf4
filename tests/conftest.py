from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from rarebayes import dataio, outcomes
from rarebayes.dataio import CsvDataset
from rarebayes.schema import Schema, parse_schema
from rarebayes.structure import NetworkModel, train
from rarebayes.synthgen import GenResult, generate

from fixture_configs import indep_config, messy_config, recovery_config


@dataclass
class Bundle:
    result: GenResult
    schema: Schema

    @property
    def data_path(self) -> Path:
        return self.result.data_path

    def dataset(self) -> CsvDataset:
        return CsvDataset(self.result.data_path)


def _bundle(config, out_dir, **schema_overrides) -> Bundle:
    result = generate(config, out_dir)
    schema = parse_schema(result.schema_path.read_text(encoding="utf-8"))
    if schema_overrides:
        schema = replace(schema, **schema_overrides)
    return Bundle(result=result, schema=schema)


@pytest.fixture
def sizes(monkeypatch):
    """Set the reader's, the writer's and pass 1's size constants for the
    rest of a test: ``sizes(chunk_rows=7, block_bytes=1)`` and so on.
    One-byte blocks end at every line, so each block holds at most one row;
    ``csv_rows`` is how many records ``csv.reader`` reads at a time once a
    quote sends the rest of a file to it."""
    constants = {
        "chunk_rows": (dataio, "_CHUNK_ROWS"),
        "block_bytes": (dataio, "_BLOCK_BYTES"),
        "write_rows": (dataio, "_WRITE_ROWS"),
        "csv_rows": (dataio, "_CSV_ROWS"),
        "reservoir_capacity": (outcomes, "RESERVOIR_CAPACITY"),
        "max_categories": (outcomes, "MAX_CATEGORIES"),
    }

    def set_sizes(**values: int) -> None:
        for key, value in values.items():
            monkeypatch.setattr(*constants[key], value)

    return set_sizes


@pytest.fixture(scope="session")
def recovery_bundle(tmp_path_factory) -> Bundle:
    """50k rows, 6 informative fields, planted edge, 2 noise fields."""
    return _bundle(recovery_config(), tmp_path_factory.mktemp("recovery"))


@pytest.fixture(scope="session")
def recovery_model(recovery_bundle) -> NetworkModel:
    return train(recovery_bundle.schema, recovery_bundle.dataset(), seed=7)


@pytest.fixture(scope="session")
def indep_bundle(tmp_path_factory) -> Bundle:
    """100k rows from a conditionally independent truth; u=0, 8 bins."""
    return _bundle(
        indep_config(),
        tmp_path_factory.mktemp("indep"),
        max_parents=0,
        t_prime=1.0,
        max_bins=8,
    )


@pytest.fixture(scope="session")
def indep_eval_bundle(tmp_path_factory) -> Bundle:
    """Held-out sample from the same truth as ``indep_bundle``."""
    return _bundle(indep_config(n=20_000, seed=203), tmp_path_factory.mktemp("indep_eval"))


@pytest.fixture(scope="session")
def indep_model(indep_bundle) -> NetworkModel:
    return train(indep_bundle.schema, indep_bundle.dataset(), seed=5)


@pytest.fixture(scope="session")
def messy_bundle(tmp_path_factory) -> Bundle:
    """Small mixed fixture: missing cells, groups, a planted dependency."""
    return _bundle(messy_config(), tmp_path_factory.mktemp("messy"), t_prime=1.0)


@pytest.fixture(scope="session")
def messy_model(messy_bundle) -> NetworkModel:
    return train(messy_bundle.schema, messy_bundle.dataset(), seed=3)

from __future__ import annotations

import copy
import csv
import gc
import io
import json
import math
import pickle
import random
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marble import features as features_module
from marble.agents import MlAgent, SlmAgent, ml_train
from marble.core import SLM_AGENT_IDS, AgentId, ConfigError, EngineConfig, Severity, validate_config
from marble.engine import run_instance, strip_timings
from marble.features import (
    AccidentRecord,
    FeatureRegistry,
    FeatureValue,
    RowError,
    SchemaError,
    _parse_cell,
    _parse_label,
    canonical_name,
    default_registry,
    format_features,
    ingest_csv,
    load_registry,
    project,
)
from synth import FakeBackend

ENV_FEATURES = (
    "Weather Conditions",
    "Light Conditions",
    "Visibility",
    "Temperature",
    "Wind Speed",
    "Humidity",
)


def assigned(registry: FeatureRegistry) -> tuple[str, ...]:
    """Every feature name the registry assigns, in SLM agent order."""
    return tuple(name for agent in SLM_AGENT_IDS for name in registry.domains.get(agent, ()))


def full_record(rec_id: str = "r1", label: int | None = 2) -> AccidentRecord:
    registry = default_registry()
    features = {name: FeatureValue.categorical(f"v-{name}") for name in assigned(registry)}
    return AccidentRecord(
        id=rec_id, features=features, label=None if label is None else Severity(label)
    )


class TestFeatureValue:
    def test_nan_and_inf_become_missing(self):
        assert FeatureValue.numeric(math.nan).is_missing
        assert FeatureValue.numeric(math.inf).is_missing

    def test_render_variants(self):
        assert FeatureValue.categorical("Rainy").render() == "Rainy"
        assert FeatureValue.numeric(0.5).render() == "0.5"
        assert FeatureValue.numeric(30.0).render() == "30"
        assert FeatureValue.missing().render() == "unknown"

    @pytest.mark.parametrize(
        "value", [FeatureValue.categorical("Rainy"), FeatureValue.numeric(0.5), FeatureValue.missing()]
    )
    def test_copies_are_equal_and_hash_alike(self, value):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            assert hash(copied) == hash(value)
        assert not hasattr(value, "__dict__")


class TestRegistry:
    def test_default_domain_rows(self):
        registry = default_registry()
        assert registry.domain_features(AgentId.ENVIRONMENTAL) == ENV_FEATURES
        for agent in SLM_AGENT_IDS:
            assert len(registry.domain_features(agent)) == 6

    def test_default_domains_are_disjoint(self):
        registry = default_registry()
        seen: set[str] = set()
        for agent in SLM_AGENT_IDS:
            names = {canonical_name(n) for n in registry.domain_features(agent)}
            assert not seen & names
            seen |= names

    def test_only_slm_domains_take_assignments(self):
        with pytest.raises(ValueError):
            FeatureRegistry(domains={AgentId.ML: ("Humidity",)})


class TestLoadRegistry:
    def load(self, tmp_path, data):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_registry(path)

    def test_reads_domains_in_order_and_ignores_ml_only(self, tmp_path):
        registry = self.load(tmp_path, {"spatial": ["Latitude", "Longitude"], "Temporal": [], "ml_only": ["Id"]})
        assert registry.domains == {AgentId.SPATIAL: ("Latitude", "Longitude"), AgentId.TEMPORAL: ()}

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"spatial": "Latitude"}, "registry.SPATIAL must be a JSON array"),
            ({"spatial": [1]}, r"registry.SPATIAL\[0\] must be a string"),
            ({"spatial": None}, "registry.SPATIAL must be a JSON array"),
            ({"spatial": ["Latitude", 2]}, r"registry.SPATIAL\[1\] must be a string"),
            ({"spatial": [1, 2]}, r"registry.SPATIAL\[0\] must be a string"),
            ([1], "registry must be a JSON object"),
            ({"weather": ["Rain"]}, "unknown agent id: weather"),
            ({"ml": ["Humidity"]}, "registry.ML: only SLM domains take feature assignments"),
            ({"spatial": ["Latitude"], "Spatial": ["Longitude"]}, "registry.SPATIAL is given twice"),
        ],
    )
    def test_malformed_registry_rejected(self, tmp_path, data, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            self.load(tmp_path, data)


class TestProject:
    def test_environmental_projection_is_the_appendix_row(self):
        record = full_record()
        projected = project(record, AgentId.ENVIRONMENTAL)
        assert tuple(projected) == ENV_FEATURES

    def test_ml_projection_is_identity(self):
        record = full_record()
        projected = project(record, AgentId.ML)
        assert projected == dict(record.features)
        assert len(projected) == 24

    def test_absent_feature_surfaces_as_missing(self):
        record = full_record()
        features = {k: v for k, v in record.features.items() if k != "Humidity"}
        trimmed = AccidentRecord(id="r2", features=features)
        projected = project(trimmed, AgentId.ENVIRONMENTAL)
        assert len(projected) == 6
        assert projected["Humidity"].is_missing

    def test_unknown_features_stay_out_of_slm_projections(self):
        record = AccidentRecord(
            id="r3",
            features={
                "Humidity": FeatureValue.numeric(40),
                "mystery": FeatureValue.categorical("x"),
            },
        )
        projected = project(record, AgentId.ENVIRONMENTAL)
        assert "mystery" not in projected
        assert "mystery" in project(record, AgentId.ML)

    def test_header_spelling_is_canonicalized(self):
        record = AccidentRecord(
            id="r4", features={"weather_conditions": FeatureValue.categorical("Fog")}
        )
        projected = project(record, AgentId.ENVIRONMENTAL)
        assert projected["Weather Conditions"].text == "Fog"

    @given(st.sets(st.sampled_from([n for n in assigned(default_registry())]), min_size=0))
    @settings(max_examples=50)
    def test_partition_consistency(self, missing_names):
        # Records shaped like CSV rows: every registry feature present,
        # some carrying missing markers, plus an ML-only extra.
        registry = default_registry()
        features = {
            name: (FeatureValue.missing() if name in missing_names else FeatureValue.categorical("v"))
            for name in assigned(registry)
        }
        features["extra"] = FeatureValue.categorical("ml-only")
        record = AccidentRecord(id="p", features=features)
        union: set[str] = set()
        for agent in SLM_AGENT_IDS:
            keys = set(project(record, agent, registry))
            assert not union & keys  # disjoint across domains
            union |= keys
        assert union == set(assigned(registry))
        assert "extra" not in union

    def test_projection_is_deterministic(self):
        record = full_record()
        first = format_features(project(record, AgentId.TEMPORAL))
        second = format_features(project(record, AgentId.TEMPORAL))
        assert first == second

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_call_reference(self, data):
        registry = data.draw(st.none() | registries)
        record = AccidentRecord("h", data.draw(headers(registry or default_registry())))
        for agent in AgentId:
            expected = reference_project(record, agent, registry or default_registry())
            for _ in range(2):  # the second call reads the header's stored entry
                projected = project(record, agent, registry)
                assert list(projected) == list(expected)
                assert all(projected[name] is value for name, value in expected.items())

    def test_projection_keeps_nothing_per_record(self, tmp_path):
        names = assigned(default_registry()) + ("Extra",)
        rows = [",".join(names)] + [",".join(f"{i}.{j}" for j in range(len(names))) for i in range(400)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        records = ingest_csv(path)
        registry = default_registry()  # fresh, so its one entry for the header counts
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in records:
                for agent in AgentId:
                    project(record, agent, registry)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * len(records)

    def test_threads_projecting_at_once_agree_with_the_reference(self):
        # Records of 40 headers, projected on 8 threads at once through one
        # registry: a torn or lost entry shows as a wrong projection or a
        # header missing from the map.
        registry = default_registry()
        base = assigned(registry)
        records = []
        for i in range(40):
            names = base[i % len(base):] + base[: i % len(base)] + (f"extra {i}",)
            records.append(AccidentRecord(f"s{i}", {n: FeatureValue.numeric(j) for j, n in enumerate(names)}))
        expected = {r.id: [reference_project(r, a, registry) for a in AgentId] for r in records}
        results: list[dict] = [{} for _ in range(8)]

        def work(k: int) -> None:
            for r in records[5 * k:] + records[: 5 * k]:
                results[k][r.id] = [project(r, a, registry) for a in AgentId]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
        assert features_module._resolve.cache_info().currsize >= len(records)

    def test_records_with_ever_new_headers_keep_little_on_the_default_registry(self):
        # Client-built feature maps with one varying field: each record brings
        # a header of its own, and each is dropped once projected.
        base = {name: FeatureValue.categorical("v") for name in assigned(default_registry())}
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                record = AccidentRecord(f"h{i}", {**base, f"extra {i}": FeatureValue.numeric(i)})
                for agent in AgentId:
                    project(record, agent)
            del record
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 2000


def reference_project(record: AccidentRecord, agent: AgentId, registry: FeatureRegistry) -> dict[str, FeatureValue]:
    """Projection that canonicalizes the record's names on every call; of two
    names with one canonical form, the later one's value wins."""
    if agent is AgentId.ML:
        return dict(record.features)
    by_canonical = {canonical_name(n): v for n, v in record.features.items()}
    missing = features_module._MISSING
    return {name: by_canonical.get(canonical_name(name), missing) for name in registry.domains.get(agent, ())}


_SEPARATORS = st.sampled_from([" ", "  ", "_", "-", " - ", "__"])


@st.composite
def spellings(draw, name: str) -> str:
    """Another spelling of ``name`` with the same words: case, separators and padding vary."""
    words = [draw(st.sampled_from([w, w.lower(), w.upper(), w.title()])) for w in name.split()]
    spelled = words[0] if words else ""
    for word in words[1:]:
        spelled += draw(_SEPARATORS) + word
    return draw(st.sampled_from(["", " ", "_"])) + spelled + draw(st.sampled_from(["", " ", "-"]))


_NAME_POOL = assigned(default_registry())
_other_names = st.text(alphabet="aBc _-", max_size=6)
registries = st.dictionaries(
    st.sampled_from(SLM_AGENT_IDS), st.lists(st.sampled_from(_NAME_POOL) | _other_names, max_size=5).map(tuple)
).map(FeatureRegistry)


@st.composite
def headers(draw, registry: FeatureRegistry) -> dict[str, FeatureValue]:
    """Record features in any order: some registry names, each spelled once or
    twice, and extra names, each holding a value object of its own."""
    names: list[str] = []
    for name in draw(st.lists(st.sampled_from(assigned(registry) or ("none",)), unique=True)):
        names.extend(draw(st.lists(spellings(name), min_size=1, max_size=2)))
    names.extend(draw(st.lists(st.sampled_from(_NAME_POOL) | _other_names, max_size=4)))
    names = draw(st.permutations(names))
    return {name: FeatureValue.numeric(i) for i, name in enumerate(names)}


class TestFormatFeatures:
    def test_name_value_lines(self):
        subset = {
            "Weather": FeatureValue.categorical("Rainy"),
            "Visibility": FeatureValue.numeric(0.5),
        }
        assert format_features(subset) == "Weather: Rainy\nVisibility: 0.5"

    def test_empty_map_renders_empty_text(self):
        assert format_features({}) == ""

    def test_missing_renders_unknown(self):
        assert format_features({"Humidity": FeatureValue.missing()}) == "Humidity: unknown"


class TestIngestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_three_valid_rows(self, tmp_path):
        path = self.write(
            tmp_path,
            "id,Weather Conditions,Speed Limit,severity\n"
            "a,Rain,30,2\n"
            "b,Clear,60,4\n"
            "c,Fog,50,1\n",
        )
        records = ingest_csv(path)
        assert [r.id for r in records] == ["a", "b", "c"]
        assert [int(r.label) for r in records] == [2, 4, 1]
        assert records[0].features["Weather Conditions"].text == "Rain"
        assert records[1].features["Speed Limit"].number == 60.0

    def test_a_utf8_bom_is_not_part_of_the_first_header(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text("id,Weather Conditions,severity\na,Rain,2\n", encoding="utf-8-sig")
        (record,) = ingest_csv(path)
        assert record.id == "a"
        assert list(record.features) == ["Weather Conditions"]

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"id,Weather Conditions,severity\na,Rain,2\nb,Caf\xe9,3\n", "row 2"),
            (b'id,Weather Conditions,severity\na,"Rain\nand Caf\xe9",2\n', "row 1"),
            ("id,Weather Conditions,severity\na,Rain,2\n".encode("utf-16"), "the header"),
        ],
        ids=["latin-1", "quoted-newline", "utf-16"],
    )
    def test_a_file_that_is_not_utf8_names_the_row(self, tmp_path, data, where):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=rf"data\.csv is not UTF-8: byte 0x[0-9a-f]{{2}} in {where}$"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("id," + "W" * 200_000 + "\na,Rain\n", "the header"),
            ("id,Weather Conditions\na,Rain\nb,\"two\nlines\"\nc," + "x" * 200_000 + "\n", "row 3"),
        ],
        ids=["header", "row"],
    )
    def test_a_cell_past_the_field_size_limit_names_the_row(self, tmp_path, text, where):
        # The csv module's default limit is 131,072 characters, and ingest leaves it as it is.
        with pytest.raises(SchemaError, match=rf"data\.csv: field larger than field limit \(131072\) in {where}$"):
            ingest_csv(self.write(tmp_path, text))

    def test_one_row_count_names_both_a_bad_row_and_a_csv_error(self, tmp_path):
        path = self.write(tmp_path, "id,Weather Conditions\na,Rain\nb,Fog,extra\nc," + "x" * 200_000 + "\n")
        errors: list[RowError] = []
        with pytest.raises(SchemaError, match=r"data\.csv: field larger than field limit \(131072\) in row 3$"):
            ingest_csv(path, errors_out=errors)
        assert [(e.row, e.message) for e in errors] == [(2, "expected 2 columns, got 3")]

    def test_label_out_of_range_collected(self, tmp_path):
        path = self.write(
            tmp_path,
            "Weather Conditions,severity\nRain,2\nClear,5\nFog,3\n",
        )
        errors: list[RowError] = []
        records = ingest_csv(path, errors_out=errors)
        assert len(records) == 2
        assert len(errors) == 1
        assert errors[0].row == 2
        assert "label out of range" in errors[0].message

    @pytest.mark.parametrize("label", ["inf", "-inf", "1e400", "2.7", "0.5", "4.0001"])
    def test_non_class_label_counts_against_the_budget(self, tmp_path, label):
        path = self.write(tmp_path, f"Weather Conditions,severity\nRain,2\nClear,{label}\nFog,3.0\n")
        errors: list[RowError] = []
        records = ingest_csv(path, errors_out=errors)
        assert [int(r.label) for r in records] == [2, 3]
        assert [e.row for e in errors] == [2]
        path = self.write(tmp_path, "Weather Conditions,severity\n" + f"Clear,{label}\n" * 101)
        with pytest.raises(RowError, match=r"row 101: bad-row budget \(100\) exceeded"):
            ingest_csv(path)

    def test_unparseable_numeric_becomes_missing(self, tmp_path):
        path = self.write(tmp_path, "Speed Limit,severity\nN/A,2\n")
        records = ingest_csv(path)
        assert len(records) == 1
        assert records[0].features["Speed Limit"].is_missing

    @pytest.mark.parametrize("cell", ["", "n/a", "inf"])
    def test_missing_and_non_finite_cells_equal_the_missing_marker(self, tmp_path, cell):
        path = self.write(tmp_path, f"Speed Limit,severity\n{cell},2\n")
        assert ingest_csv(path)[0].features["Speed Limit"] == FeatureValue.missing()

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(SchemaError, match="missing header"):
            ingest_csv(path)

    def test_registry_mismatch_raises_schema_error(self, tmp_path):
        path = self.write(tmp_path, "foo,bar\n1,2\n")
        with pytest.raises(SchemaError, match="no registry feature"):
            ingest_csv(path, default_registry())

    @pytest.mark.parametrize(
        "header, first, second",
        [
            ("Weather Conditions,weather conditions,severity", "Weather Conditions", "weather conditions"),
            ("Weather,Speed Limit,Weather,severity", "Weather", "Weather"),
            ("ID,Speed_Limit,id,speed limit", "ID", "id"),
        ],
    )
    def test_colliding_headers_raise_schema_error_naming_both(self, tmp_path, header, first, second):
        cells = ",".join("1" for _ in header.split(","))
        path = self.write(tmp_path, f"{header}\n{cells}\n")
        with pytest.raises(SchemaError, match=f"headers {first!r} and {second!r} collide"):
            ingest_csv(path)

    def test_bad_row_budget_exceeded(self, tmp_path):
        path = self.write(tmp_path, "Weather Conditions,severity\nRain,2\n" + "Clear,9\n" * 100)
        errors: list[RowError] = []
        assert len(ingest_csv(path, errors_out=errors)) == 1
        assert len(errors) == 100
        path = self.write(tmp_path, "Weather Conditions,severity\nRain,2\n" + "Clear,9\n" * 101)
        with pytest.raises(RowError, match=r"row 102: bad-row budget \(100\) exceeded"):
            ingest_csv(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = self.write(tmp_path, "id,Weather Conditions\nx,Rain\nx,Fog\n")
        errors: list[RowError] = []
        records = ingest_csv(path, errors_out=errors)
        assert len(records) == 1
        assert len(errors) == 1 and "duplicate id" in errors[0].message

    def test_nonexistent_file_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "absent.csv")

    def test_missing_round_trip_through_projection(self, tmp_path):
        # Fixture built ahead of the implementation: a missing numeric must
        # survive ingest -> project -> format as an "unknown" line.
        path = self.write(tmp_path, "Humidity,Visibility,severity\nN/A,0.5,3\n")
        records = ingest_csv(path)
        projected = project(records[0], AgentId.ENVIRONMENTAL)
        text = format_features(projected)
        assert "Humidity: unknown" in text
        assert "Visibility: 0.5" in text


def reference_ingest_csv(path, registry=None, *, bad_row_budget=100, errors_out=None):
    """The per-cell ingest that ``ingest_csv`` replaced, kept as its reference.

    It parses every cell on its own and takes the first of colliding
    headers for id and label; ``ingest_csv`` must agree on every input whose
    headers do not collide.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("missing header") from None
        if not header or all(not h.strip() for h in header):
            raise SchemaError("missing header")
        canon = [canonical_name(h) for h in header]
        if registry is not None:
            assigned = {canonical_name(n) for names in registry.domains.values() for n in names}
            feature_cols = [c for c in canon if c not in ("id", "severity")]
            if feature_cols and not assigned.intersection(feature_cols):
                raise SchemaError("no registry feature matches the header")
        id_col = canon.index("id") if "id" in canon else None
        label_col = canon.index("severity") if "severity" in canon else None

        records: list[AccidentRecord] = []
        seen_ids: set[str] = set()
        bad = 0
        for row_num, cells in enumerate(reader, start=1):
            try:
                if len(cells) != len(header):
                    raise RowError(row_num, f"expected {len(header)} columns, got {len(cells)}")
                rec_id = cells[id_col].strip() if id_col is not None else f"row-{row_num}"
                if not rec_id:
                    rec_id = f"row-{row_num}"
                if rec_id in seen_ids:
                    raise RowError(row_num, f"duplicate id {rec_id!r}")
                label = _parse_label(cells[label_col], row_num) if label_col is not None else None
                features = {
                    header[i]: _parse_cell(cells[i])
                    for i in range(len(header))
                    if i != id_col and i != label_col
                }
                seen_ids.add(rec_id)
                records.append(AccidentRecord(id=rec_id, features=features, label=label))
            except RowError as err:
                bad += 1
                if errors_out is not None:
                    errors_out.append(err)
                if bad > bad_row_budget:
                    raise RowError(row_num, f"bad-row budget ({bad_row_budget}) exceeded: {err.message}") from err
        return records


# Cells repeat (a small pool) or are unique (free text and numbers); the
# pool mixes numeric, categorical, missing and non-finite spellings.
_CELL_POOL = ["", " ", "N/A", "unknown", "-", "nan", "inf", "1e400", "30", "30.0", " 30 ", "-0.0",
              "0.5", "Rain", "rain", " Fog ", "a,b", 'say "hi"']
_cells = st.one_of(
    st.sampled_from(_CELL_POOL),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00\r\n"), max_size=6),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_HEADER_POOL = ["Weather Conditions", "Speed Limit", "Temperature", "Road Type", "Humidity", "mystery"]


@st.composite
def csv_tables(draw):
    header = draw(st.lists(st.sampled_from(_HEADER_POOL), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "id")
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "severity")
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        row = [
            draw(st.sampled_from(["r1", "r2", "", f"u{len(rows)}"])) if h == "id"
            else draw(st.sampled_from(["1", "2", "3.0", "4", "", "5", "2.7", "x"])) if h == "severity"
            else draw(_cells)
            for h in header
        ]
        if draw(st.integers(0, 9)) == 0:  # a row with the wrong column count
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
    return header, rows


def _csv_text(header, rows) -> str:
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header, *rows])
    return out.getvalue()


def _ingest_outcome(ingest, path, **options):
    errors: list[RowError] = []
    try:
        records = ingest(path, errors_out=errors, **options)
    except (RowError, SchemaError) as exc:
        return type(exc).__name__, str(exc), [str(e) for e in errors]
    return [(r.id, r.label, r.features) for r in records], [str(e) for e in errors]


class TestIngestAgainstReference:
    @given(csv_tables(), st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_records_and_errors_equal_the_per_cell_reference(self, table, budget):
        # A small budget makes the generated tables exhaust it.
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(features_module, "_BAD_ROW_BUDGET", budget):
            path = Path(tmp) / "data.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows([header, *rows])
            expected = _ingest_outcome(reference_ingest_csv, path, bad_row_budget=budget)
            assert _ingest_outcome(ingest_csv, path) == expected

    @given(
        st.one_of(
            st.binary(max_size=300),
            st.tuples(csv_tables(), st.sampled_from(["latin-1", "utf-16"])).map(
                lambda t: _csv_text(*t[0]).encode(t[1], errors="replace")
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_give_records_or_a_named_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            for registry in (None, default_registry()):
                try:
                    ingest_csv(path, registry)
                except (RowError, SchemaError):
                    pass

    def test_equal_cells_share_one_value(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Weather Conditions,Road Type,severity\nRain,Rain,1\nRain,Dry,2\n", encoding="utf-8")
        first, second = ingest_csv(path)
        assert first.features["Weather Conditions"] is first.features["Road Type"]
        assert first.features["Weather Conditions"] is second.features["Weather Conditions"]


def bench_like_csv(path: Path, n: int, seed: int) -> Path:
    """``n`` labelled rows shaped like the benchmark's: five hint columns,
    coordinates and times that are nearly unique per row, numbers of a few
    hundred values, low-cardinality categories and some missing cells."""
    rng = random.Random(seed)
    hints = ("Weather Conditions", "Day of Week", "Road Type", "Point of Impact", "ml signal")
    header = ["id", *assigned(default_registry()), "ml signal", "severity"]
    rows = [header]
    for i in range(n):
        cells = {
            "Visibility": f"{rng.uniform(0.1, 10.0):.1f}",
            "Temperature": f"{rng.uniform(-10.0, 35.0):.1f}",
            "Wind Speed": str(rng.randrange(0, 61)),
            "Humidity": str(rng.randrange(20, 101)),
            "Time of Day": f"{rng.randrange(24):02d}:{rng.randrange(60):02d}",
            "Month": rng.choice(["January", "April", "July", "October"]),
            "Day of Year": str(rng.randrange(1, 366)),
            "Speed Limit": str(rng.choice((20, 30, 40, 50, 60, 70))),
            "Travel Distance": f"{rng.uniform(0.1, 50.0):.1f}",
            "Longitude": f"{rng.uniform(-5.0, 1.8):.4f}",
            "Latitude": f"{rng.uniform(50.0, 55.0):.4f}",
            **{name: f"sig{rng.randint(1, 4)}" for name in hints},
        }
        row = [f"t{i}"]
        for name in header[1:-1]:
            cell = cells.get(name, rng.choice(["a", "b", "c", ""]))
            row.append("" if rng.random() < 0.05 else cell)
        rows.append(row + [str(1 + i % 4)])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return path


@st.composite
def labelled_tables(draw):
    """A header of registry and other names, and rows whose first four labels
    cover every class, so ``ml_train`` accepts them."""
    names = draw(st.lists(st.sampled_from(_HEADER_POOL + ["Day of Week", "Point of Impact"]), min_size=1,
                          max_size=6, unique=True))
    labels = [1, 2, 3, 4] + draw(st.lists(st.integers(1, 4), max_size=6))
    rows = [[draw(_cells) for _ in names] + [str(label)] for label in labels]
    return [names + ["severity"], *rows]


class TestRecordStorage:
    def test_an_empty_record_id_is_rejected(self):
        with pytest.raises(ValueError, match="^record id must be non-empty$"):
            AccidentRecord(id="", features={})
    def test_an_ingested_record_keeps_under_900_bytes(self, tmp_path):
        path = bench_like_csv(tmp_path / "train.csv", 1000, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = ingest_csv(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(records) == 1000
        assert retained < 900 * len(records)

    def test_a_record_reads_like_its_dict(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,Weather Conditions,severity,Speed Limit\na,Rain,2,30\n", encoding="utf-8")
        (record,) = ingest_csv(path)
        expected = {"Weather Conditions": FeatureValue.categorical("Rain"), "Speed Limit": FeatureValue.numeric(30)}
        assert record.features == expected and len(record.features) == 2
        assert list(record.features.items()) == list(expected.items())
        assert record.features.get("Humidity") is None and "Speed Limit" in record.features
        assert repr(record.features) == repr(expected)
        assert not hasattr(record, "__dict__") and not hasattr(record.features, "__dict__")

    @given(labelled_tables())
    @settings(max_examples=40, deadline=None)
    def test_an_ingested_record_behaves_as_its_dict_copy(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows(table)
            records = ingest_csv(path)
        copies = [AccidentRecord(r.id, dict(r.features), r.label) for r in records]
        assert records == copies and copies == records
        for record, copied in zip(records, copies):
            for agent in AgentId:
                ours, theirs = project(record, agent), project(copied, agent)
                assert list(ours) == list(theirs)
                assert all(ours[name] is theirs[name] for name in theirs)
        model = ml_train(records)
        assert model == ml_train(copies)
        cfg = validate_config(EngineConfig())
        backend = FakeBackend(lambda prompt: json.dumps(
            {"severity": 1 + len(prompt) % 4, "confidence": 0.7, "reasoning": "by prompt length"}))
        agents = [MlAgent(model), *(SlmAgent(agent, backend, cfg) for agent in SLM_AGENT_IDS)]
        for record, copied in zip(records, copies):
            traces = [strip_timings(run_instance(r, agents, cfg)[1].to_dict()) for r in (record, copied)]
            assert traces[0] == traces[1]

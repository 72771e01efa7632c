from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marble.agents.ml import TrainError, ml_evaluate, ml_train
from marble.core import ALL_SEVERITIES, AgentId, Severity
from marble.features import AccidentRecord, FeatureValue, ingest_csv


def cat_record(rec_id: str, label: int | None, **features: str) -> AccidentRecord:
    return AccidentRecord(
        id=rec_id,
        features={k: FeatureValue.categorical(v) for k, v in features.items()},
        label=None if label is None else Severity(label),
    )


def separable_training_set() -> list[AccidentRecord]:
    return [cat_record(f"t{k}", k, color=f"c{k}") for k in (1, 2, 3, 4)]


class TestTrain:
    def test_separable_set_recovers_each_class(self):
        model = ml_train(separable_training_set())
        for k in (1, 2, 3, 4):
            output = ml_evaluate(model, {"color": FeatureValue.categorical(f"c{k}")})
            assert int(output.prediction) == k
            probs = model.predict_proba({"color": FeatureValue.categorical(f"c{k}")})
            assert probs[Severity(k)] == max(probs.values())

    def test_absent_class_rejected(self):
        records = [cat_record(f"t{k}", k, color="x") for k in (1, 2, 3)]
        with pytest.raises(TrainError, match="class 4 unrepresented"):
            ml_train(records)

    def test_unlabeled_record_rejected(self):
        records = separable_training_set() + [cat_record("u", None, color="c1")]
        with pytest.raises(TrainError):
            ml_train(records)

    def test_training_is_order_independent(self):
        records = [
            cat_record(f"t{i}", (i % 4) + 1, color=f"c{(i % 4) + 1}", road=f"r{i % 3}")
            for i in range(40)
        ]
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        probe = {"color": FeatureValue.categorical("c2"), "road": FeatureValue.categorical("r1")}
        assert ml_train(records).predict_proba(probe) == ml_train(shuffled).predict_proba(probe)


class TestPosterior:
    def test_hand_computed_posterior(self):
        # Two class-1 rows and one row each for 2-4; feature X has vocab
        # {a, b}. Add-one smoothing gives posterior (9, 2, 4, 2)/17 for X=a.
        records = [
            cat_record("a1", 1, X="a"),
            cat_record("a2", 1, X="a"),
            cat_record("b1", 2, X="b"),
            cat_record("c1", 3, X="a"),
            cat_record("d1", 4, X="b"),
        ]
        model = ml_train(records)
        probs = model.predict_proba({"X": FeatureValue.categorical("a")})
        assert probs[Severity(1)] == pytest.approx(9 / 17, abs=1e-9)
        assert probs[Severity(2)] == pytest.approx(2 / 17, abs=1e-9)
        assert probs[Severity(3)] == pytest.approx(4 / 17, abs=1e-9)
        assert probs[Severity(4)] == pytest.approx(2 / 17, abs=1e-9)
        output = ml_evaluate(model, {"X": FeatureValue.categorical("a")})
        assert int(output.prediction) == 1
        assert output.confidence == pytest.approx(9 / 17, abs=1e-9)

    def test_probabilities_normalized_on_arbitrary_inputs(self):
        model = ml_train(separable_training_set())
        rng = random.Random(3)
        for _ in range(50):
            probe = {"color": FeatureValue.categorical(rng.choice(["c1", "c2", "zzz", ""]))}
            probs = model.predict_proba(probe)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in probs.values())

    def test_uniform_posterior_ties_to_lowest_class(self):
        # One record per class with identical features: the posterior is
        # exactly uniform, so the argmax must settle on class 1.
        records = [cat_record(f"t{k}", k, color="same") for k in (1, 2, 3, 4)]
        model = ml_train(records)
        output = ml_evaluate(model, {"color": FeatureValue.categorical("same")})
        assert int(output.prediction) == 1
        assert output.confidence == pytest.approx(0.25, abs=1e-12)

    def test_output_shape(self):
        model = ml_train(separable_training_set())
        output = ml_evaluate(model, {"color": FeatureValue.categorical("c3")})
        assert output.agent is AgentId.ML
        assert output.reasoning == ""
        assert output.raw_confidence == output.confidence
        assert not output.failed


class TestNumericFeatures:
    def make_numeric_set(self) -> list[AccidentRecord]:
        # Speed strongly separates classes: class k speeds cluster near 20k.
        rng = random.Random(11)
        records = []
        for i in range(200):
            k = (i % 4) + 1
            speed = 20.0 * k + rng.uniform(-5, 5)
            records.append(
                AccidentRecord(
                    id=f"n{i}",
                    features={"Speed Limit": FeatureValue.numeric(speed)},
                    label=Severity(k),
                )
            )
        return records

    def test_binned_numeric_signal_is_learned(self):
        model = ml_train(self.make_numeric_set())
        for k in (1, 2, 3, 4):
            probe = {"Speed Limit": FeatureValue.numeric(20.0 * k)}
            assert int(ml_evaluate(model, probe).prediction) == k

    def test_missing_numeric_uses_training_mean(self):
        model = ml_train(self.make_numeric_set())
        # The training mean sits near 50, inside the class-2/3 range, so a
        # missing speed must not predict an extreme class.
        output = ml_evaluate(model, {"Speed Limit": FeatureValue.missing()})
        assert int(output.prediction) in (2, 3)


class TestSyntheticAccuracy:
    def generate(self, n_per_class: int, seed: int) -> list[AccidentRecord]:
        # Class k emits its own token with probability 0.7, each of the
        # other three tokens with probability 0.1.
        rng = random.Random(seed)
        records = []
        for k in (1, 2, 3, 4):
            for i in range(n_per_class):
                token = f"c{k}" if rng.random() < 0.7 else f"c{rng.choice([j for j in (1, 2, 3, 4) if j != k])}"
                records.append(cat_record(f"s{k}-{i}", k, color=token))
        return records

    def test_beats_random_baseline_and_tracks_bayes(self):
        # Independent oracle, computed before the model existed: with
        # uniform classes the Bayes rule maps token c_k to class k and its
        # accuracy is exactly the token fidelity, 0.7.
        bayes_accuracy = 0.7
        train = self.generate(500, seed=1)
        test = self.generate(125, seed=2)
        model = ml_train(train)
        hits = sum(
            1 for r in test if ml_evaluate(model, r.features).prediction == r.label
        )
        accuracy = hits / len(test)
        assert accuracy > 0.25
        assert accuracy == pytest.approx(bayes_accuracy, abs=0.08)


class ReferenceModel:
    """The record-wise trainer and predictor that ``ml_train`` and
    ``MlModel.predict_proba`` replaced, kept as their reference."""

    def __init__(self, records):
        labeled = [r for r in records if r.label is not None]
        if len(labeled) != len(records):
            raise TrainError("training records must all carry a severity label")
        counts = {int(k): 0 for k in ALL_SEVERITIES}
        for record in labeled:
            counts[int(record.label)] += 1
        for k in ALL_SEVERITIES:
            if counts[int(k)] == 0:
                raise TrainError(f"class {int(k)} unrepresented")
        self.class_counts = counts
        self.feature_names = tuple(sorted({name for r in labeled for name in r.features}))
        numeric = set()
        for name in self.feature_names:
            kinds = {r.features[name].kind for r in labeled if name in r.features}
            if "numeric" in kinds and "categorical" not in kinds:
                numeric.add(name)
        self.numeric_features = frozenset(numeric)
        self.bins, self.means = {}, {}
        for name in numeric:
            values = sorted(
                r.features[name].number
                for r in labeled
                if name in r.features and r.features[name].kind == "numeric"
            )
            self.means[name] = sum(values) / len(values)
            cuts = statistics.quantiles(values, n=5, method="inclusive") if len(set(values)) > 1 else ()
            self.bins[name] = tuple(cuts)
        self.tables = {name: {int(k): {} for k in ALL_SEVERITIES} for name in self.feature_names}
        vocab = {name: set() for name in self.feature_names}
        for record in labeled:
            for name in self.feature_names:
                token = self.token(name, record.features.get(name))
                table = self.tables[name][int(record.label)]
                table[token] = table.get(token, 0) + 1
                vocab[name].add(token)
        self.vocab_sizes = {name: max(1, len(tokens)) for name, tokens in vocab.items()}

    def token(self, name, value):
        if name in self.numeric_features:
            if value is None or value.kind != "numeric":
                number = self.means[name]
            else:
                number = value.number
            return f"bin{bisect_right(self.bins[name], number)}"
        if value is None or value.is_missing:
            return "(missing)"
        return value.render()

    def predict_proba(self, features):
        total = sum(self.class_counts.values())
        log_scores = {}
        for k in ALL_SEVERITIES:
            n_k = self.class_counts[int(k)]
            score = math.log(n_k / total)
            for name in self.feature_names:
                token = self.token(name, features.get(name))
                count = self.tables[name][int(k)].get(token, 0)
                score += math.log((count + 1) / (n_k + self.vocab_sizes[name]))
            log_scores[k] = score
        peak = max(log_scores.values())
        raw = {k: math.exp(v - peak) for k, v in log_scores.items()}
        norm = sum(raw.values())
        return {k: v / norm for k, v in raw.items()}


_MODEL_FIELDS = ("class_counts", "feature_names", "numeric_features", "bins", "means", "tables", "vocab_sizes")
_NAMES = ["Weather", "Speed", "Road", "Humidity", "Month"]
# A small pool of prebuilt values, which records share as ingest shares
# them, beside freshly built values that are equal but distinct objects.
_SHARED = [FeatureValue.categorical(t) for t in ("Rain", "Fog", "rain")] + [
    FeatureValue.numeric(x) for x in (0.0, -0.0, 30.0, 30.5, 60.0)
] + [FeatureValue.numeric(1.5, "miles"), FeatureValue.missing()]
_values = st.one_of(
    st.sampled_from(_SHARED),
    st.sampled_from(["Rain", "Dry", "x"]).map(FeatureValue.categorical),
    st.floats(-1e6, 1e6, allow_nan=False).map(FeatureValue.numeric),
    st.sampled_from([10.0, 20.0, 30.0]).map(FeatureValue.numeric),
    st.just(FeatureValue.missing()),
)
# Maps over a subset of the names, so features go absent; "Weather" leans
# categorical and "Speed" numeric, so that both column kinds are common.
_feature_maps = st.fixed_dictionaries(
    {},
    optional={
        "Weather": st.one_of(st.sampled_from(_SHARED[:3]), _values),
        "Speed": st.one_of(st.floats(0, 120, allow_nan=False).map(FeatureValue.numeric), _values),
        **{name: _values for name in _NAMES[2:]},
    },
)


@st.composite
def training_sets(draw):
    labels = [1, 2, 3, 4] + draw(st.lists(st.integers(1, 4), max_size=40))
    order = draw(st.permutations(range(len(labels))))
    return [
        AccidentRecord(id=f"t{i}", features=draw(_feature_maps), label=Severity(labels[i]))
        for i in order
    ]


_probes = st.one_of(
    _feature_maps,
    st.fixed_dictionaries({name: st.just(FeatureValue.categorical("never-seen")) for name in _NAMES}),
    st.fixed_dictionaries({"Weather": st.just(FeatureValue.numeric(1e9)), "other": _values}),
)


class TestAgainstReference:
    @given(training_sets(), st.lists(_probes, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_model_importance_and_posteriors_equal_the_record_wise_reference(self, records, probes):
        model, reference = ml_train(records), ReferenceModel(records)
        for name in _MODEL_FIELDS:
            assert getattr(model, name) == getattr(reference, name), name
        for features in probes + [r.features for r in records]:
            assert model.predict_proba(features) == reference.predict_proba(features)

    def test_reference_agrees_on_an_ingested_training_csv(self, tmp_path):
        rng = random.Random(13)
        lines = ["id,Weather Conditions,Speed Limit,Temperature,Road Type,severity"]
        for i in range(300):
            lines.append(",".join([
                f"r{i}",
                rng.choice(["Rain", "Fog", "Clear", "N/A"]),
                rng.choice(["30", "40", "60", "70", ""]),
                f"{rng.uniform(-5, 30):.1f}",
                rng.choice(["Single", "Dual", "unknown"]),
                str(i % 4 + 1),
            ]))
        path = tmp_path / "train.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = ingest_csv(path)
        model, reference = ml_train(records), ReferenceModel(records)
        for name in _MODEL_FIELDS:
            assert getattr(model, name) == getattr(reference, name), name
        assert all(model.predict_proba(r.features) == reference.predict_proba(r.features) for r in records)

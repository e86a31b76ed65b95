import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmem import (
    CentroidPredictor,
    LarsStrategy,
    LikelihoodPredictor,
    OraclePredictor,
    PriorityStrategy,
    QbcStrategy,
    RandomStrategy,
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    UniformPredictor,
    generate,
    make_strategy,
    rare_patterns,
)
from covmem.baselines import STRATEGY_KINDS
from covmem.errors import (
    BinOutOfRange,
    EmptyCommittee,
    EmptyInput,
    LengthMismatch,
    MissingScores,
    NegativeProbability,
    NonFiniteValue,
    NonNormalizedPrediction,
    RepeatedArrival,
)


def sample(i, output_bin=0, k=3, loss=None, stalled=False, confidence=None, features=None):
    if confidence is None:
        prediction = np.full(k, 1.0 / k)
    else:
        prediction = np.full(k, (1.0 - confidence) / (k - 1))
        prediction[output_bin] = confidence
    return Sample(
        features=np.asarray(features if features is not None else [float(i), 0.0]),
        output_bin=output_bin,
        prediction=prediction,
        arrival_index=i,
        loss=loss,
        stalled=stalled,
    )


def run(strategy, pool, cfg, predictor=None, seed=0, memory=None):
    memory = memory if memory is not None else ReplayMemory(capacity=cfg.capacity)
    outcome = strategy.select(memory, pool, cfg, predictor, np.random.default_rng(seed))
    return memory, outcome


class TestRandomReservoir:
    def test_fills_then_holds_capacity(self):
        cfg = StrategyConfig(capacity=20, batch_size=5, k_pred=3, k_out=3)
        pool = [sample(i) for i in range(200)]
        memory, outcome = run(RandomStrategy(), pool, cfg)
        assert memory.sample_count == 20
        assert len(outcome.kept_ids) == 20
        assert outcome.retrain and outcome.rci == 1.0

    def test_under_capacity_keeps_all(self):
        cfg = StrategyConfig(capacity=20, batch_size=5, k_pred=3, k_out=3)
        memory, outcome = run(RandomStrategy(), [sample(i) for i in range(7)], cfg)
        assert outcome.kept_ids.tolist() == list(range(7))

    def test_uniform_over_history_not_recency(self):
        """Every stream position should be kept with probability C/N."""
        cfg = StrategyConfig(capacity=20, batch_size=5, k_pred=3, k_out=3)
        pool = [sample(i) for i in range(200)]
        hits = np.zeros(200)
        seeds = 300
        for seed in range(seeds):
            _, outcome = run(RandomStrategy(), pool, cfg, seed=seed)
            hits[outcome.kept_ids] += 1
        freqs = hits / seeds
        # each position: Binomial(300, 0.1); 5 sigma is about 0.087
        assert freqs.min() > 0.1 - 0.09
        assert freqs.max() < 0.1 + 0.09
        # no drift toward either end of the stream
        mean_kept_arrival = (freqs * np.arange(200)).sum() / freqs.sum()
        assert abs(mean_kept_arrival - 99.5) < 6.0

    def test_chunked_feeding_stays_uniform(self):
        """Chunk boundaries must not bias the reservoir toward recency.

        The exact kept set differs between whole-stream and chunked
        feeding (slots are re-sorted between calls), but the inclusion
        distribution has to stay uniform over the full history.
        """
        cfg = StrategyConfig(capacity=20, batch_size=5, k_pred=3, k_out=3)
        pool = [sample(i) for i in range(200)]
        hits = np.zeros(200)
        seeds = 150
        for seed in range(seeds):
            memory = ReplayMemory(capacity=20)
            rng = np.random.default_rng(seed)
            for start in range(0, 200, 50):
                RandomStrategy().select(memory, pool[start:start + 50], cfg, None, rng)
            hits[memory.sorted_samples().arrival_index] += 1
        freqs = hits / seeds
        assert freqs.max() < 0.25  # nothing sticky
        mean_kept_arrival = (freqs * np.arange(200)).sum() / freqs.sum()
        assert abs(mean_kept_arrival - 99.5) < 8.0


class TestFifo:
    def test_keeps_most_recent(self):
        cfg = StrategyConfig(capacity=5, batch_size=5, k_pred=3, k_out=3)
        memory, outcome = run(make_strategy("fifo"), [sample(i) for i in range(12)], cfg)
        assert outcome.kept_ids.tolist() == [7, 8, 9, 10, 11]

    def test_rolls_across_calls(self):
        cfg = StrategyConfig(capacity=5, batch_size=5, k_pred=3, k_out=3)
        memory = ReplayMemory(capacity=5)
        strategy = make_strategy("fifo")
        run(strategy, [sample(i) for i in range(4)], cfg, memory=memory)
        _, outcome = run(strategy, [sample(4 + i) for i in range(4)], cfg, memory=memory)
        assert outcome.kept_ids.tolist() == [3, 4, 5, 6, 7]


class TestPriority:
    def cfg(self, capacity, temperature=0.0):
        return StrategyConfig(capacity=capacity, batch_size=capacity,
                              temperature=temperature, k_pred=3, k_out=3)

    def test_loss_discards_easiest_first(self):
        pool = [sample(i, loss=l) for i, l in enumerate([5.0, 1.0, 3.0, 2.0, 4.0])]
        _, outcome = run(PriorityStrategy("loss"), pool, self.cfg(3))
        assert outcome.kept_ids.tolist() == [0, 2, 4]

    def test_loss_requires_scores(self):
        pool = [sample(0, loss=None)]
        cfg = StrategyConfig(capacity=1, batch_size=1, k_pred=3, k_out=3)
        memory = ReplayMemory(capacity=1)
        memory.pool = SamplePool.from_samples([sample(9, loss=None)])
        with pytest.raises(MissingScores):
            PriorityStrategy("loss").select(memory, pool, cfg, None, np.random.default_rng(0))

    def test_confidence_discards_most_confident(self):
        pool = [
            sample(0, confidence=0.99),
            sample(1, confidence=0.40),
            sample(2, confidence=0.80),
        ]
        _, outcome = run(PriorityStrategy("confidence"), pool, self.cfg(1))
        assert outcome.kept_ids.tolist() == [1]

    def test_stalled_keeps_stalled_sessions(self):
        pool = [sample(0), sample(1, stalled=True), sample(2), sample(3, stalled=True)]
        _, outcome = run(PriorityStrategy("stalled"), pool, self.cfg(2))
        assert outcome.kept_ids.tolist() == [1, 3]

    def test_label_count_rebalances_greedily(self):
        # 40 of label 0 and 10 of label 1 into capacity 30: the greedy
        # dynamic recount discards label 0 down to 20 and keeps label 1 whole
        pool = [sample(i, output_bin=0) for i in range(40)]
        pool += [sample(40 + i, output_bin=1) for i in range(10)]
        memory, outcome = run(PriorityStrategy("label_count"), pool, self.cfg(30))
        counts = memory.class_counts(3, by="output_bin")
        assert counts.tolist() == [20, 10, 0]
        # ties at equal count resolve to the earliest sample, so the kept
        # label-0 block is the latest-arrived one
        kept0 = [i for i in outcome.kept_ids.tolist() if i < 40]
        assert kept0 == list(range(20, 40))

    # each kind's pool, capacity and the greedy set T = 0 keeps
    GREEDY = {
        "loss": ([sample(i, loss=l) for i, l in enumerate([5.0, 1.0, 3.0, 2.0, 4.0])], 3,
                 [0, 2, 4]),
        "confidence": ([sample(i, confidence=c) for i, c in enumerate([0.99, 0.40, 0.80])], 1,
                       [1]),
        "stalled": ([sample(i, stalled=i % 2 == 1) for i in range(4)], 2, [1, 3]),
        # label 0 is recounted after each discard: 6, 5, 4 all exceed label 1's 2
        "label_count": ([sample(i, output_bin=int(i >= 6)) for i in range(8)], 5,
                        [3, 4, 5, 6, 7]),
    }

    @pytest.mark.parametrize("kind", sorted(GREEDY))
    def test_zero_temperature_keeps_the_greedy_set_with_one_draw_per_discard(self, kind):
        pool, capacity, kept = self.GREEDY[kind]
        rng = np.random.default_rng(11)
        outcome = PriorityStrategy(kind).select(ReplayMemory(capacity=capacity), pool,
                                                self.cfg(capacity), None, rng)
        assert outcome.kept_ids.tolist() == kept
        advanced = np.random.default_rng(11)
        for _ in range(len(pool) - capacity):
            advanced.random()
        assert rng.bit_generator.state == advanced.bit_generator.state

    def test_unknown_score(self):
        with pytest.raises(ValueError):
            PriorityStrategy("karma")

    def test_softmax_temperature_randomizes(self):
        pool = [sample(i, loss=float(i)) for i in range(30)]
        kept = set()
        for seed in range(5):
            _, outcome = run(PriorityStrategy("loss"), pool, self.cfg(10, temperature=5.0),
                             seed=seed)
            kept.add(tuple(outcome.kept_ids.tolist()))
        assert len(kept) > 1


class TestLars:
    def test_requires_losses_without_predictor(self):
        cfg = StrategyConfig(capacity=5, batch_size=5, k_pred=3, k_out=3)
        with pytest.raises(MissingScores):
            run(LarsStrategy(), [sample(0)], cfg)

    @staticmethod
    def victim(store):
        pool = SamplePool.from_samples(store)
        return LarsStrategy._victim(pool.output_bin, pool.loss, pool.arrival_index, 3)

    def test_victim_is_lowest_loss_of_most_frequent_label(self):
        store = [
            sample(0, output_bin=0, loss=3.0),
            sample(1, output_bin=0, loss=1.0),
            sample(2, output_bin=1, loss=0.5),
        ]
        assert self.victim(store) == 1

    def test_victim_tie_breaks_on_arrival(self):
        store = [
            sample(5, output_bin=0, loss=1.0),
            sample(2, output_bin=0, loss=1.0),
        ]
        assert self.victim(store) == 1

    def test_admission_decays_for_late_arrivals(self):
        # with the halving term, arrivals far past capacity almost never
        # enter, so the reservoir stays dominated by the early stream
        cfg = StrategyConfig(capacity=50, batch_size=10, k_pred=3, k_out=3)
        pool = [sample(i, output_bin=i % 3, loss=1.0) for i in range(5000)]
        memory, _ = run(LarsStrategy(), pool, cfg, seed=1)
        assert memory.sample_count == 50
        latest = memory.sorted_samples().arrival_index.max()
        assert latest < 1500

    def test_fills_below_capacity_unconditionally(self):
        cfg = StrategyConfig(capacity=10, batch_size=5, k_pred=3, k_out=3)
        memory, outcome = run(LarsStrategy(), [sample(i, loss=1.0) for i in range(6)], cfg)
        assert outcome.kept_ids.tolist() == list(range(6))


class TestQbc:
    def test_committee_must_be_nonempty(self):
        with pytest.raises(EmptyCommittee):
            QbcStrategy(UniformPredictor(3), committee_size=0)

    def test_unknown_vote(self):
        with pytest.raises(ValueError):
            QbcStrategy(UniformPredictor(3), vote="loud")

    def test_an_empty_memory_and_chunk_is_empty_input(self):
        cfg = StrategyConfig(capacity=4, batch_size=4, k_pred=3, k_out=3)
        with pytest.raises(EmptyInput, match="nothing to select from"):
            run(QbcStrategy(CentroidPredictor(3)), SamplePool.empty(), cfg)

    def test_a_committee_emptied_after_construction_is_refused(self):
        strategy = QbcStrategy(CentroidPredictor(3))
        strategy.committee = []
        cfg = StrategyConfig(capacity=2, batch_size=2, k_pred=3, k_out=3)
        with pytest.raises(EmptyCommittee, match="committee is empty"):
            run(strategy, [sample(i) for i in range(5)], cfg)

    def test_unfit_committee_breaks_ties_by_arrival(self):
        cfg = StrategyConfig(capacity=4, batch_size=4, k_pred=3, k_out=3)
        pool = [sample(i) for i in range(10)]
        _, outcome = run(QbcStrategy(CentroidPredictor(3)), pool, cfg)
        assert outcome.kept_ids.tolist() == [0, 1, 2, 3]

    def test_keeps_uncertain_samples_after_training(self):
        rng = np.random.default_rng(0)
        train = [
            sample(i, output_bin=i % 2, features=[4.0 * (i % 2) + rng.normal(0.0, 0.3), 0.0])
            for i in range(100)
        ]
        strategy = QbcStrategy(CentroidPredictor(2), committee_size=5)
        strategy.on_retrain(SamplePool.from_samples(train), rng)

        cfg = StrategyConfig(capacity=2, batch_size=2, k_pred=2, k_out=2)
        on_centroid = [sample(200, k=2, features=[0.0, 0.0]),
                       sample(201, k=2, features=[4.0, 0.0])]
        midpoint = [sample(202, k=2, features=[2.0, 0.0]), sample(203, k=2, features=[2.1, 0.0])]
        _, outcome = run(strategy, on_centroid + midpoint, cfg)
        assert outcome.kept_ids.tolist() == [202, 203]

    def test_on_retrain_with_empty_training_set_is_a_no_op(self):
        strategy = QbcStrategy(UniformPredictor(3))
        before = list(strategy.committee)
        strategy.on_retrain(SamplePool.empty(), np.random.default_rng(0))
        assert strategy.committee == before

    def test_member_mean_vote_runs(self):
        cfg = StrategyConfig(capacity=2, batch_size=2, k_pred=3, k_out=3)
        strategy = QbcStrategy(CentroidPredictor(3), vote="member_mean")
        _, outcome = run(strategy, [sample(i) for i in range(5)], cfg)
        assert len(outcome.kept_ids) == 2


class TestFactory:
    def test_all_kinds_construct(self):
        for kind in STRATEGY_KINDS:
            strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
            assert strategy is not None

    def test_qbc_needs_a_base(self):
        with pytest.raises(EmptyCommittee):
            make_strategy("qbc")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("oracle_of_delphi")

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_kind_honors_capacity(self, kind):
        cfg = StrategyConfig(capacity=25, batch_size=5, k_pred=3, k_out=3)
        rng = np.random.default_rng(4)
        pool = [
            sample(
                i,
                output_bin=int(rng.integers(3)),
                loss=float(rng.uniform(0, 5)),
                stalled=bool(rng.integers(2)),
                confidence=float(rng.uniform(0.34, 0.99)),
                features=rng.normal(size=2),
            )
            for i in range(60)
        ]
        strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
        memory, outcome = run(strategy, pool, cfg)
        assert 0 < memory.sample_count <= 25
        # only the coverage strategies keep reference batches for a retrain trigger
        assert bool(memory.last_train_batches) == kind.startswith("memento")
        kept = set(memory.sorted_samples().arrival_index.tolist())
        assert kept == set(outcome.kept_ids.tolist())

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_kind_rejects_non_finite_predictions(self, kind):
        cfg = StrategyConfig(capacity=4, batch_size=2, k_pred=3, k_out=3)
        pool = [sample(i, loss=1.0) for i in range(6)]
        pool[2] = Sample(features=np.zeros(2), output_bin=0, arrival_index=2, loss=1.0,
                         prediction=np.array([np.nan, 0.5, 0.5]))
        strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
        with pytest.raises(NonFiniteValue):
            run(strategy, pool, cfg)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @given(st.one_of(st.integers(-5, -1), st.integers(3, 8)), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_every_kind_rejects_an_out_of_range_bin(self, kind, bad_bin, row):
        chunk = [sample(i, loss=1.0) for i in range(4, 8)]
        chunk[row] = sample(4 + row, output_bin=bad_bin, loss=1.0)
        assert_chunk_rejected(kind, chunk, BinOutOfRange)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @given(st.integers(1, 6).filter(lambda k: k != 3), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_every_kind_rejects_a_prediction_width_other_than_k_pred(self, kind, width,
                                                                       repredict):
        chunk = [sample(i, k=width, loss=1.0) for i in range(4, 8)]
        predictor = UniformPredictor(width) if repredict else None
        assert_chunk_rejected(kind, chunk, LengthMismatch, predictor)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3),
           st.integers(0, 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_every_kind_rejects_non_finite_features(self, kind, bad, row, col, oracle):
        features = np.array([float(4 + row), 0.0])
        features[col] = bad
        chunk = [sample(i, loss=1.0) for i in range(4, 8)]
        chunk[row] = sample(4 + row, loss=1.0, features=features)
        predictor = OraclePredictor(np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])) \
            if oracle else None
        assert_chunk_rejected(kind, chunk, NonFiniteValue, predictor)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @given(st.floats(0.01, 2.0), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_every_kind_rejects_a_negative_kept_prediction(self, kind, excess, row):
        chunk = [sample(i, loss=1.0) for i in range(4, 8)]
        chunk[row] = Sample(features=np.zeros(2), output_bin=0, arrival_index=4 + row,
                            loss=1.0, prediction=np.array([1.0 + excess, -excess, 0.0]))
        assert_chunk_rejected(kind, chunk, NegativeProbability)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @given(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 10.0)), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_every_kind_rejects_an_unnormalised_kept_prediction(self, kind, total, row):
        chunk = [sample(i, loss=1.0) for i in range(4, 8)]
        chunk[row] = Sample(features=np.zeros(2), output_bin=0, arrival_index=4 + row,
                            loss=1.0, prediction=np.full(3, total / 3))
        assert_chunk_rejected(kind, chunk, NonNormalizedPrediction)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_kind_rejects_a_chunk_fed_twice(self, kind):
        cfg = StrategyConfig(capacity=200, batch_size=8, k_pred=3, k_out=3)
        (chunk,) = generate(rare_patterns(iterations=1, samples_per_iteration=300), seed=0)
        strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
        memory, _ = run(strategy, chunk, cfg, predictor=UniformPredictor(3))
        kept = memory.pool.arrival_index.copy()
        with pytest.raises(RepeatedArrival):
            run(strategy, chunk, cfg, predictor=UniformPredictor(3), memory=memory)
        np.testing.assert_array_equal(memory.pool.arrival_index, kept)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_kind_rejects_a_repeat_within_a_chunk(self, kind):
        cfg = StrategyConfig(capacity=4, batch_size=2, k_pred=3, k_out=3)
        pool = [sample(i, loss=1.0) for i in (5, 3, 1, 3, 0)]
        strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
        with pytest.raises(RepeatedArrival):
            run(strategy, pool, cfg)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_every_kind_takes_new_ids_that_interleave_with_memory(self, kind):
        cfg = StrategyConfig(capacity=6, batch_size=2, k_pred=3, k_out=3)
        strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
        memory, _ = run(strategy, [sample(i, loss=1.0) for i in (0, 2, 4)], cfg)
        memory, outcome = run(strategy, [sample(i, loss=1.0) for i in (5, 3, 1)], cfg,
                              memory=memory)
        assert outcome.kept_ids.tolist() == [0, 1, 2, 3, 4, 5]


def assert_chunk_rejected(kind, chunk, error, predictor=None):
    """``chunk`` raises ``error`` at ingestion and leaves the memory's pool as it was."""
    cfg = StrategyConfig(capacity=8, batch_size=2, k_pred=3, k_out=3)
    strategy = make_strategy(kind, base_predictor=UniformPredictor(3))
    memory, _ = run(strategy, [sample(i, output_bin=i % 3, loss=1.0) for i in range(4)], cfg)
    before = memory.pool
    with pytest.raises(error):
        run(strategy, chunk, cfg, predictor=predictor, memory=memory)
    assert memory.pool is before


# sha256 over the kept_ids of every select call in kept_id_digest(), one
# per strategy, recorded with the per-sample store that the columnar pool
# replaced.  A moved RNG draw or a reordered tie changes them.
GOLDEN_KEPT_IDS = {
    "memento": "b2810825b1cca3e0e9e5ab063afa1a95a41f38f6c0f6166d78a46f864fe31a62",
    "random": "c4e934d3ac7017b331937365fdd1a45daed7ef7fb03a95d49c89a7cf8d6a182a",
    "fifo": "c9b312fd0c95454cb847ebbed97da4d9684f58a350bd2a5a6a88d8860c513a52",
    "priority_loss": "213cdffe7c02fe75b8fec1f3356423fc6f07c0246d037655c4fdfe1ea4c85d2e",
    "lars": "ff9ff2f025b1da77c7d90bfa7240d15c38ea2d05c4edaa02d10fe18a8e46e108",
    "qbc": "a86000f01a36fe98621dec388e46a5bc67f92038f107da4abaf1f7905c430306",
}


def kept_id_digest(kind, seed=0):
    """Feed a 4 x 2,000 rare_patterns stream through one strategy, retraining on request."""
    spec = rare_patterns(iterations=4, samples_per_iteration=2_000, feature_dim=8)
    cfg = StrategyConfig(capacity=1_000, batch_size=32, k_pred=3, k_out=3)
    chunks = list(generate(spec, seed))
    strategy = make_strategy(kind, base_predictor=CentroidPredictor(3), committee_size=3)
    memory = ReplayMemory(capacity=cfg.capacity)
    predictor = LikelihoodPredictor(3).fit(chunks[0].take(slice(0, 200)))
    rng = np.random.default_rng([seed, 4])
    digest = hashlib.sha256()
    for chunk in chunks:
        outcome = strategy.select(memory, chunk, cfg, predictor, rng)
        digest.update(outcome.kept_ids.tobytes())
        if outcome.retrain:
            train = memory.sorted_samples()
            predictor = predictor.fit(train)
            strategy.on_retrain(train, rng)
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN_KEPT_IDS))
def test_kept_ids_match_golden_digest(kind):
    assert kept_id_digest(kind) == GOLDEN_KEPT_IDS[kind]


def outcome_bytes(kind, form, seed=3):
    """Each select's kept_ids, trace, rci bytes and retrain over a 3 x 300 stream.

    Every chunk is handed to ``select`` as ``form(chunk)``.
    """
    spec = rare_patterns(iterations=3, samples_per_iteration=300, feature_dim=4)
    cfg = StrategyConfig(capacity=200, batch_size=8, k_pred=3, k_out=3)
    strategy = make_strategy(kind)
    memory = ReplayMemory(capacity=cfg.capacity)
    predictor = OraclePredictor(spec.class_means)
    rng = np.random.default_rng(seed)
    return [
        (o.kept_ids.tobytes(), o.trace, np.float64(o.rci).tobytes(), o.retrain)
        for o in (strategy.select(memory, form(chunk), cfg, predictor, rng)
                  for chunk in generate(spec, seed))
    ]


@pytest.mark.parametrize("kind", ["memento", "random", "fifo"])
def test_a_pool_its_rows_and_a_list_of_them_select_alike(kind):
    """One hot path: a chunk, which is a pool, and a tuple and a list of its rows."""
    by_pool = outcome_bytes(kind, lambda chunk: chunk)
    assert by_pool == outcome_bytes(kind, tuple)
    assert by_pool == outcome_bytes(kind, list)
    assert any(trace for _, trace, _, _ in by_pool) == (kind == "memento")


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_every_kind_checks_a_pool_as_it_checks_rows(kind):
    chunk = [sample(i, loss=1.0) for i in range(4, 8)]
    chunk[1] = sample(5, loss=1.0, features=[5.0, math.nan])
    assert_chunk_rejected(kind, SamplePool.from_samples(chunk), NonFiniteValue)
    chunk[1] = sample(5, output_bin=3, loss=1.0)
    assert_chunk_rejected(kind, SamplePool.from_samples(chunk), BinOutOfRange)
    chunk[1] = sample(4, loss=1.0)
    assert_chunk_rejected(kind, SamplePool.from_samples(chunk), RepeatedArrival)

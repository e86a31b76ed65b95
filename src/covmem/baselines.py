"""Selection strategies: the coverage maximizer and its baselines.

Every strategy exposes the same call: fold a chunk of new samples into
a bounded :class:`~covmem.samples.ReplayMemory` and report what it kept
and whether to retrain.  The baselines answer "retrain" unconditionally
(they have no drift signal of their own) and report an RCI of 1.0, so a
harness wired for strategy-decided retraining degrades to retraining on
schedule, which is how such memories are normally run.

Available kinds:

``memento``            coverage maximization over distribution distances
``memento_euclidean``  same loop, feature-average euclidean distances
``random``             streaming reservoir, uniform over the full history
``fifo``               keep the most recent ``capacity`` samples
``priority_*``         softmax discards over one scalar per sample
``lars``               decayed reservoir admission + loss-aware eviction
``qbc``                keep the samples a model committee disagrees on
"""
from abc import ABC, abstractmethod

import numpy as np

from . import selection
# Neither name is called here: bbdr runs inside selection.ingest, and
# only the coverage strategy batches.  Both stay because
# perfbench/spans.py wraps every module's bbdr and batch_samples for its
# layer split.
from .batching import batch_samples, bbdr  # noqa: F401
from .density import _inverse_cdf
from .distances import _entropy_rows
from .errors import (
    EmptyCommittee,
    EmptyInput,
    MissingScores,
)
from .predictors import Predictor
from .samples import ReplayMemory, SamplePool, StrategyConfig

__all__ = ["SelectionStrategy", "CoverageStrategy", "RandomStrategy", "FifoStrategy",
           "PriorityStrategy", "LarsStrategy", "QbcStrategy", "make_strategy",
           "STRATEGY_KINDS"]


class SelectionStrategy(ABC):
    """One policy for maintaining a bounded replay memory."""

    @abstractmethod
    def select(self, memory: ReplayMemory, new_samples, cfg: StrategyConfig, predictor,
               rng: np.random.Generator) -> selection.SelectionOutcome:
        """Update ``memory`` with ``new_samples``; return what happened.

        ``new_samples`` is a :class:`~covmem.samples.SamplePool`, as
        every stream chunk is, or a sequence of
        :class:`~covmem.samples.Sample` rows, with arrival indices new to
        the memory.  Every built-in strategy takes it in through
        :func:`~covmem.selection.ingest`, which rejects bad input with a
        typed error before the memory changes.
        """

    def on_retrain(self, train: SamplePool, rng: np.random.Generator) -> None:
        """Hook the harness calls after each retraining event, with the training pool."""


def _finish(memory: ReplayMemory, kept: SamplePool) -> selection.SelectionOutcome:
    """Store the survivors and report an always-retrain outcome.

    A baseline has no retrain trigger, so it keeps no reference batches.
    """
    memory.replace_contents(kept)
    return selection.SelectionOutcome(memory.pool.arrival_index.copy(), [], True, 1.0)


class CoverageStrategy(SelectionStrategy):
    """Density-based coverage maximization (see :mod:`covmem.selection`)."""

    def __init__(self, pred_metric: str = "jsd"):
        selection._spaces(pred_metric)  # an unknown metric raises ValueError here
        self.pred_metric = pred_metric

    def select(self, memory, new_samples, cfg, predictor, rng):
        return selection.select(memory, new_samples, cfg, predictor, rng,
                                pred_metric=self.pred_metric)


class RandomStrategy(SelectionStrategy):
    """Classic streaming reservoir: a uniform sample of the whole history.

    Each arrival with stream position ``n`` (its arrival index plus one)
    enters a full memory with probability ``capacity / n``, replacing a
    uniformly chosen resident.  New samples therefore get less and less
    likely to stick over time, which is what makes this baseline slow to
    pick up late pattern changes.
    """

    def select(self, memory, new_samples, cfg, predictor, rng):
        resident = len(memory.pool)
        pool = selection.ingest(memory, new_samples, cfg, predictor)
        store = list(range(min(len(pool), cfg.capacity)))  # positions into ``pool``
        # Every arrival past a full memory draws one slot.  One draw with an
        # array of bounds yields the same numbers as one draw per arrival.
        late = np.arange(max(resident, cfg.capacity), len(pool))
        slots = rng.integers(0, pool.arrival_index[late] + 1)
        hit = slots < cfg.capacity
        for j, slot in zip(late[hit].tolist(), slots[hit].tolist()):
            store[slot] = j
        return _finish(memory, pool.take(sorted(store)))


class FifoStrategy(SelectionStrategy):
    """Keep the ``capacity`` most recent samples, nothing else."""

    def select(self, memory, new_samples, cfg, predictor, rng):
        pool = selection.ingest(memory, new_samples, cfg, predictor)
        return _finish(memory, pool.take(np.arange(max(0, len(pool) - cfg.capacity), len(pool))))


# scalar-priority strategies ----------------------------------------------
#
# Each variant reduces a sample to one number and discards by softmax
# over the signed score (sign chosen so "likely to discard" is high),
# drawn as memento draws: one ``rng.random()`` per discard, and at T = 0
# the first maximum.  Label counts drop with every discard of their label.

_PRIORITY_KINDS = ("loss", "confidence", "label_count", "stalled")


class PriorityStrategy(SelectionStrategy):
    """Per-sample softmax discards over one scalar score.

    ``loss``         discard low-loss samples (the model knows them)
    ``confidence``   discard high-confidence samples
    ``label_count``  discard from overrepresented labels (dynamic)
    ``stalled``      discard samples whose session did not stall
    """

    def __init__(self, score: str):
        if score not in _PRIORITY_KINDS:
            raise ValueError(f"unknown priority score {score!r}, expected one of {_PRIORITY_KINDS}")
        self.score = score

    def _signed_scores(self, pool: SamplePool) -> np.ndarray:
        if self.score == "loss":
            if np.isnan(pool.loss).any():
                raise MissingScores("loss-priority needs every sample scored; "
                                    "run a predictor pass first")
            return -pool.loss
        if self.score == "confidence":
            return pool.prediction.max(axis=1)
        if self.score == "stalled":
            return np.where(pool.stalled, 0.0, 1.0)
        return np.bincount(pool.output_bin)[pool.output_bin].astype(float)

    def select(self, memory, new_samples, cfg, predictor, rng):
        pool = selection.ingest(memory, new_samples, cfg, predictor, scored=self.score == "loss")
        excess = len(pool) - cfg.capacity
        if excess <= 0:
            return _finish(memory, pool)

        signed, labels = self._signed_scores(pool), pool.output_bin
        live = np.arange(len(pool))  # positions into ``pool``
        for _ in range(excess):
            probabilities = selection.discard_probabilities(signed[live], cfg.temperature)
            j = _inverse_cdf(probabilities, rng, np.empty(live.size))
            if self.score == "label_count":
                signed[labels == labels[live[j]]] -= 1.0
            live = np.delete(live, j)
        return _finish(memory, pool.take(live))


class LarsStrategy(SelectionStrategy):
    """Loss-aware reservoir with decayed admission, for classification.

    Admission: a sample at stream position ``n`` enters with probability
    ``min(1, C/n) * 0.5 ** (max(0, n - C) / C)``, a reservoir rate that
    additionally halves every ``C`` samples once the memory has filled.
    Eviction: drop the lowest-loss sample of the most frequent label, so
    easy samples from dominant classes leave first.  Output bins must
    be class labels: a run on a regression scenario is refused by
    :func:`~covmem.harness.run`.
    """

    def select(self, memory, new_samples, cfg, predictor, rng):
        resident = len(memory.pool)
        pool = selection.ingest(memory, new_samples, cfg, predictor, scored=True)
        if np.isnan(pool.loss[resident:]).any():
            raise MissingScores("eviction ranks by loss; samples arrived unscored "
                                "and no predictor was given")
        bins, losses, arrivals = pool.output_bin, pool.loss, pool.arrival_index
        capacity = cfg.capacity
        store = list(range(resident))  # positions into ``pool``
        for j, arrival in enumerate(arrivals[resident:].tolist(), start=resident):
            if len(store) < capacity:
                store.append(j)
                continue
            n = arrival + 1
            admit_p = min(1.0, capacity / n) * 0.5 ** (max(0, n - capacity) / capacity)
            if rng.random() >= admit_p:
                continue
            held = np.array(store)
            store[self._victim(bins[held], losses[held], arrivals[held], cfg.k_out)] = j
        return _finish(memory, pool.take(sorted(store)))

    @staticmethod
    def _victim(bins: np.ndarray, losses: np.ndarray, arrivals: np.ndarray, k_out: int) -> int:
        """Store position of the lowest-loss member of the most frequent label.

        Ties on loss go to the earliest arrival, then to the lowest position.
        """
        label = int(np.bincount(bins, minlength=k_out).argmax())
        candidates = np.flatnonzero(bins == label)
        order = np.lexsort((candidates, arrivals[candidates], losses[candidates]))
        return int(candidates[order[0]])


QBC_VOTES = ("soft", "member_mean")


class QbcStrategy(SelectionStrategy):
    """Query by committee: keep the samples the committee is unsure about.

    Scores each pool sample with the entropy of the committee's soft
    vote (the mean of member predictions) and keeps the top ``capacity``
    by entropy, breaking ties by arrival index.  ``vote="member_mean"``
    averages member entropies instead, which ignores disagreement
    between confident members.

    The committee is refreshed on every retraining event: each member is
    refit on a bootstrap resample of the memory, so members stay
    diverse even when they share an architecture.
    """

    def __init__(self, base_predictor: Predictor, committee_size: int = 5,
                 vote: str = "soft"):
        if committee_size < 1:
            raise EmptyCommittee(f"committee needs at least one member, got {committee_size}")
        if vote not in QBC_VOTES:
            raise ValueError(f"unknown vote {vote!r}, expected 'soft' or 'member_mean'")
        self.committee: list[Predictor] = [base_predictor for _ in range(committee_size)]
        self._base = base_predictor
        self.vote = vote

    def on_retrain(self, train, rng):
        if not len(train):
            return
        refreshed = []
        for _ in self.committee:
            picks = rng.integers(0, len(train), size=len(train))
            refreshed.append(self._base.fit(train.take(picks)))
        self.committee = refreshed

    def _entropies(self, features: np.ndarray) -> np.ndarray:
        if not self.committee:
            raise EmptyCommittee("committee is empty")
        member_preds = [m.predict_many(features) for m in self.committee]
        if self.vote == "soft":
            mean = np.mean(member_preds, axis=0)
            return _entropy_rows(mean)
        return np.mean([_entropy_rows(p) for p in member_preds], axis=0)

    def select(self, memory, new_samples, cfg, predictor, rng):
        pool = selection.ingest(memory, new_samples, cfg, predictor)
        if not len(pool):
            raise EmptyInput("nothing to select from")
        if len(pool) <= cfg.capacity:
            return _finish(memory, pool)
        entropies = self._entropies(pool.features)
        order = np.lexsort((pool.arrival_index, -entropies))
        return _finish(memory, pool.take(np.sort(order[:cfg.capacity])))


STRATEGY_KINDS = (
    "memento", "memento_euclidean", "random", "fifo",
    "priority_loss", "priority_confidence", "priority_label_count", "priority_stalled",
    "lars", "qbc",
)


def make_strategy(kind: str, *, base_predictor: Predictor | None = None,
                  committee_size: int = 5, vote: str = "soft") -> SelectionStrategy:
    """Build a strategy by kind name.

    ``qbc`` requires ``base_predictor`` (the committee template); the
    other kinds ignore the keyword arguments they do not use.
    """
    if kind == "memento":
        return CoverageStrategy("jsd")
    if kind == "memento_euclidean":
        return CoverageStrategy("euclidean")
    if kind == "random":
        return RandomStrategy()
    if kind == "fifo":
        return FifoStrategy()
    if kind.startswith("priority_"):
        return PriorityStrategy(kind.removeprefix("priority_"))
    if kind == "lars":
        return LarsStrategy()
    if kind == "qbc":
        if base_predictor is None:
            raise EmptyCommittee("qbc needs a base predictor to build its committee from")
        return QbcStrategy(base_predictor, committee_size, vote)
    raise ValueError(f"unknown strategy kind {kind!r}, expected one of {STRATEGY_KINDS}")

"""Grouping environment for the DDQN grouping-number selector.

The paper's two-step multicast group construction first lets a double deep
Q-network choose *how many* multicast groups to form by "mining users'
similarities", and only then runs K-means++ with that number.  This module
casts the grouping-number choice as a small episodic reinforcement-learning
problem:

* **State** -- summary statistics of the compressed user-feature matrix
  (number of users, feature spread, mean/min/max pairwise distance and the
  quality of the previously chosen grouping).  The statistics are cheap to
  compute and invariant to user ordering, so the same trained agent can be
  reused across reservation intervals with different user populations.
* **Action** -- an index selecting the number of groups ``K`` in
  ``[min_groups, max_groups]``.
* **Reward** -- a clustering-quality term (silhouette score of the K-means++
  partition) minus a resource-cost term that grows with ``K``.  More groups
  always improve intra-group similarity but each extra group costs an extra
  multicast channel, which is exactly the trade-off the paper's DDQN is
  meant to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster import KMeansPlusPlus, silhouette_score

#: Dimensionality of the state vector produced by :func:`grouping_state`.
STATE_DIM = 8


@dataclass(frozen=True)
class StepResult:
    """Outcome of a single environment step."""

    state: np.ndarray
    reward: float
    done: bool
    info: dict


class Environment:
    """Minimal episodic environment interface used by :func:`train_agent`."""

    #: Dimensionality of the observation vector.
    state_dim: int
    #: Number of discrete actions.
    num_actions: int

    def reset(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Start a new episode and return the initial state."""
        raise NotImplementedError

    def step(self, action: int) -> StepResult:
        """Apply ``action`` and return the resulting transition."""
        raise NotImplementedError


@dataclass(frozen=True)
class SnapshotSummary:
    """The part of the grouping state that depends on the snapshot alone.

    Only ``previous_k`` and ``previous_quality`` change from step to step,
    so an environment that replays a snapshot can keep its summary and
    assemble each state with :func:`state_from_summary`.
    """

    num_users: int
    dim: int
    spread: float
    mean_distance: float
    min_distance: float
    max_distance: float


def _upper_pairwise_distances(features: np.ndarray) -> np.ndarray:
    """Distances ``|f_i - f_j|`` for ``i < j``, in row-major order.

    Rows are written one at a time into a single ``n(n-1)/2`` buffer, so no
    ``n x n x d`` difference tensor is ever allocated.  Each entry is the
    same expression, reduced over the same contiguous last axis, as the
    upper triangle of the broadcast ``features[:, None] - features[None]``
    form, so the values match it bit for bit.
    """
    num_users = features.shape[0]
    upper = np.empty(num_users * (num_users - 1) // 2, dtype=np.float64)
    start = 0
    for i in range(num_users - 1):
        stop = start + num_users - 1 - i
        upper[start:stop] = np.sqrt(((features[i] - features[i + 1 :]) ** 2).sum(-1))
        start = stop
    return upper


def snapshot_summary(features: np.ndarray) -> SnapshotSummary:
    """Summarise a feature snapshot: user count, spread and pairwise distances.

    This is the ``O(n^2 d)`` part of :func:`grouping_state`; its memory is
    one ``n(n-1)/2`` buffer (see :func:`_upper_pairwise_distances`).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    num_users, dim = features.shape
    if num_users == 0:
        return SnapshotSummary(0, dim, 0.0, 0.0, 0.0, 0.0)
    centred = features - features.mean(axis=0, keepdims=True)
    spread = float(np.sqrt((centred**2).sum(axis=1)).mean())
    if num_users > 1:
        upper = _upper_pairwise_distances(features)
        mean_dist = float(upper.mean())
        min_dist = float(upper.min())
        max_dist = float(upper.max())
    else:
        mean_dist = min_dist = max_dist = 0.0
    return SnapshotSummary(num_users, dim, spread, mean_dist, min_dist, max_dist)


def state_from_summary(
    summary: SnapshotSummary,
    previous_k: int,
    previous_quality: float,
    max_groups: int,
) -> np.ndarray:
    """Assemble the state vector of :func:`grouping_state` from a summary."""
    if summary.num_users == 0:
        return np.zeros(STATE_DIM)
    return np.array(
        [
            summary.num_users / 100.0,
            summary.spread,
            summary.mean_distance,
            summary.min_distance,
            summary.max_distance,
            previous_k / max(max_groups, 1),
            previous_quality,
            summary.dim / 64.0,
        ],
        dtype=np.float64,
    )


def grouping_state(
    features: np.ndarray,
    previous_k: int,
    previous_quality: float,
    max_groups: int,
) -> np.ndarray:
    """Build the permutation-invariant state vector for a feature snapshot.

    Parameters
    ----------
    features:
        Compressed user-feature matrix of shape ``(num_users, dim)``.
    previous_k:
        Grouping number chosen at the previous step (0 if none yet).
    previous_quality:
        Silhouette score obtained with ``previous_k`` (0 if none yet).
    max_groups:
        Upper bound of the action space, used for normalisation.

    Exactness contract: the state is bit-identical to the broadcast form
    that materialises the ``n x n x d`` difference tensor and takes the
    mean/min/max of its upper triangle.  Each pairwise distance reduces the
    same ``d`` squared differences over a contiguous last axis, and the
    ``n(n-1)/2`` distances are reduced in the same row-major order, so
    :meth:`numpy.ndarray.mean` adds them in the same pairwise order.  A
    reduction over a non-contiguous axis (a column-major block summed with
    ``sum(axis=1)``, say) adds in another order and moves last bits.
    """
    return state_from_summary(
        snapshot_summary(features), previous_k, previous_quality, max_groups
    )


@dataclass
class GroupingEnvConfig:
    """Configuration of :class:`GroupingEnvironment`.

    ``reward = similarity_weight * silhouette(K) - resource_weight * K /
    max_groups``; ``invalid_penalty`` is returned instead when ``K`` exceeds
    the number of users in the snapshot.
    """

    min_groups: int = 2
    max_groups: int = 8
    similarity_weight: float = 1.0
    resource_weight: float = 0.35
    invalid_penalty: float = -1.0
    episode_length: int = 8
    kmeans_restarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_groups < 1:
            raise ValueError("min_groups must be at least 1")
        if self.max_groups < self.min_groups:
            raise ValueError("max_groups must be >= min_groups")
        if self.episode_length <= 0:
            raise ValueError("episode_length must be positive")

    @property
    def num_actions(self) -> int:
        return self.max_groups - self.min_groups + 1

    def action_to_k(self, action: int) -> int:
        """Map a discrete action index to a grouping number."""
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} outside [0, {self.num_actions})")
        return self.min_groups + action


FeatureProvider = Callable[[np.random.Generator], np.ndarray]


def _default_feature_provider(rng: np.random.Generator) -> np.ndarray:
    """Sample a synthetic snapshot of compressed user features.

    Users are drawn around a random number of latent "interest centres",
    which mirrors what the 1D-CNN compressor produces for a population with
    a handful of distinct viewing profiles.
    """
    num_centres = int(rng.integers(2, 6))
    users_per_centre = int(rng.integers(5, 15))
    dim = 8
    centres = rng.normal(0.0, 3.0, size=(num_centres, dim))
    samples = []
    for centre in centres:
        samples.append(centre + rng.normal(0.0, 0.5, size=(users_per_centre, dim)))
    return np.vstack(samples)


class GroupingEnvironment(Environment):
    """Episodic environment whose action is the number of multicast groups.

    Each episode presents ``episode_length`` user-feature snapshots (drawn
    from ``feature_provider``); at every step the agent picks ``K``, the
    environment clusters the snapshot with K-means++ and rewards the agent
    with clustering quality minus multicast-channel cost.
    """

    def __init__(
        self,
        config: Optional[GroupingEnvConfig] = None,
        feature_provider: Optional[FeatureProvider] = None,
    ) -> None:
        self.config = config if config is not None else GroupingEnvConfig()
        self.feature_provider = (
            feature_provider if feature_provider is not None else _default_feature_provider
        )
        self.state_dim = STATE_DIM
        self.num_actions = self.config.num_actions
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        self._rng = legacy_stream(self.config.seed)
        self._step_index = 0
        self._features: Optional[np.ndarray] = None
        self._previous_k = 0
        self._previous_quality = 0.0

    # ------------------------------------------------------------------ API
    def reset(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        if rng is not None:
            self._rng = rng
        self._step_index = 0
        self._previous_k = 0
        self._previous_quality = 0.0
        self._features = self.feature_provider(self._rng)
        return self._current_state()

    def step(self, action: int) -> StepResult:
        if self._features is None:
            raise RuntimeError("call reset() before step()")
        k = self.config.action_to_k(action)
        reward, quality = self._evaluate(self._features, k)
        self._previous_k = k
        self._previous_quality = quality
        self._step_index += 1
        done = self._step_index >= self.config.episode_length
        if not done:
            self._features = self.feature_provider(self._rng)
        state = self._current_state()
        return StepResult(state=state, reward=reward, done=done, info={"k": k, "quality": quality})

    # ------------------------------------------------------------ internals
    def _current_state(self) -> np.ndarray:
        assert self._features is not None
        return grouping_state(
            self._features, self._previous_k, self._previous_quality, self.config.max_groups
        )

    def _evaluate(self, features: np.ndarray, k: int) -> tuple:
        """Return ``(reward, silhouette)`` for clustering ``features`` into ``k`` groups."""
        num_users = features.shape[0]
        if k > num_users:
            return self.config.invalid_penalty, 0.0
        if k == 1:
            quality = 0.0
        else:
            result = KMeansPlusPlus(k, restarts=self.config.kmeans_restarts).fit(
                features, rng=self._rng
            )
            quality = silhouette_score(features, result.labels)
        cost = k / max(self.config.max_groups, 1)
        reward = self.config.similarity_weight * quality - self.config.resource_weight * cost
        return float(reward), float(quality)


class SnapshotReplayEnvironment(GroupingEnvironment):
    """Grouping environment that replays a fixed list of feature snapshots.

    Useful for training the DDQN on the exact user populations observed by
    the digital-twin manager rather than on synthetic snapshots.

    The snapshots are treated as read-only.  Each snapshot's
    :class:`SnapshotSummary` is computed the first time the snapshot is
    shown and kept per snapshot index, so the cache never holds more than
    ``len(snapshots)`` summaries; each step's state is assembled from the
    cached summary and is equal to a fresh :func:`grouping_state` call.
    """

    def __init__(
        self,
        snapshots: Sequence[np.ndarray],
        config: Optional[GroupingEnvConfig] = None,
    ) -> None:
        if not len(snapshots):
            raise ValueError("snapshots must not be empty")
        self.snapshots = snapshots
        self._cursor = 0
        self._index = 0
        self._summaries: List[Optional[SnapshotSummary]] = [None] * len(snapshots)
        super().__init__(config, feature_provider=self._next_snapshot)

    def _next_snapshot(self, rng: np.random.Generator) -> np.ndarray:
        self._index = self._cursor % len(self.snapshots)
        self._cursor += 1
        return np.asarray(self.snapshots[self._index])

    def _current_state(self) -> np.ndarray:
        summary = self._summaries[self._index]
        if summary is None:
            summary = snapshot_summary(self._features)
            self._summaries[self._index] = summary
        return state_from_summary(
            summary, self._previous_k, self._previous_quality, self.config.max_groups
        )

"""Unit tests for the RL substrate: replay, policies, DDQN, environments, training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl import (
    ConstantEpsilon,
    DDQNAgent,
    DDQNConfig,
    Environment,
    ExponentialEpsilonDecay,
    GroupingEnvConfig,
    GroupingEnvironment,
    LinearEpsilonDecay,
    ReplayBuffer,
    SnapshotReplayEnvironment,
    StepResult,
    evaluate_agent,
    grouping_state,
    train_agent,
)
from repro.rl import env as env_module
from repro.rl.env import STATE_DIM


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestReplayBuffer:
    def test_push_and_len(self):
        buffer = ReplayBuffer(capacity=4)
        for i in range(3):
            buffer.push(np.array([float(i)]), 0, 1.0, np.array([float(i + 1)]), False)
        assert len(buffer) == 3
        assert not buffer.is_full

    def test_capacity_evicts_oldest(self):
        buffer = ReplayBuffer(capacity=2)
        for i in range(5):
            buffer.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        assert len(buffer) == 2
        assert buffer.is_full

    def test_sample_shapes(self, rng):
        buffer = ReplayBuffer(capacity=16)
        for i in range(10):
            buffer.push(np.array([float(i), 0.0]), i % 3, float(i), np.array([0.0, 1.0]), i % 2 == 0)
        batch = buffer.sample(4, rng=rng)
        assert batch.states.shape == (4, 2)
        assert batch.actions.shape == (4,)
        assert batch.rewards.shape == (4,)
        assert batch.next_states.shape == (4, 2)
        assert batch.dones.shape == (4,)
        assert len(batch) == 4

    def test_sample_more_than_stored_raises(self, rng):
        buffer = ReplayBuffer(capacity=8)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError):
            buffer.sample(4, rng=rng)

    def test_sample_requires_rng(self):
        buffer = ReplayBuffer(capacity=8)
        for _ in range(4):
            buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError, match="requires an explicit rng"):
            buffer.sample(4)

    def test_clear(self):
        buffer = ReplayBuffer(capacity=8)
        buffer.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
        buffer.clear()
        assert len(buffer) == 0


class TestEpsilonSchedules:
    def test_constant(self):
        assert ConstantEpsilon(0.3).value(0) == 0.3
        assert ConstantEpsilon(0.3).value(10_000) == 0.3

    def test_linear_decay_endpoints(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.1, decay_steps=100)
        assert schedule.value(0) == pytest.approx(1.0)
        assert schedule.value(100) == pytest.approx(0.1)
        assert schedule.value(1_000) == pytest.approx(0.1)

    def test_linear_decay_monotone(self):
        schedule = LinearEpsilonDecay(start=1.0, end=0.05, decay_steps=50)
        values = [schedule.value(step) for step in range(0, 60, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_exponential_decay_monotone(self):
        schedule = ExponentialEpsilonDecay(start=1.0, end=0.05, tau=20.0)
        values = [schedule.value(step) for step in range(0, 200, 10)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.05


class _LineEnvironment(Environment):
    """Tiny deterministic MDP: action 1 is always better than action 0."""

    def __init__(self) -> None:
        self.state_dim = 2
        self.num_actions = 2
        self._step = 0

    def reset(self, rng=None):
        self._step = 0
        return np.array([0.0, 1.0])

    def step(self, action: int) -> StepResult:
        reward = 1.0 if action == 1 else -1.0
        self._step += 1
        done = self._step >= 10
        return StepResult(state=np.array([float(self._step) / 10.0, 1.0]), reward=reward, done=done, info={})


class TestDDQNAgent:
    def make_agent(self, **overrides):
        config = DDQNConfig(
            state_dim=2,
            num_actions=2,
            hidden_sizes=(16,),
            batch_size=8,
            min_replay_size=8,
            replay_capacity=256,
            target_update_interval=20,
            learning_rate=5e-3,
            seed=0,
            **overrides,
        )
        return DDQNAgent(config, epsilon_schedule=LinearEpsilonDecay(1.0, 0.05, 150))

    def test_q_values_shape(self):
        agent = self.make_agent()
        assert agent.q_values(np.array([0.0, 1.0])).shape == (2,)

    def test_q_values_rejects_wrong_dim(self):
        agent = self.make_agent()
        with pytest.raises(ValueError):
            agent.q_values(np.zeros(3))

    def test_observe_rejects_invalid_action(self):
        agent = self.make_agent()
        with pytest.raises(ValueError):
            agent.observe(np.zeros(2), 5, 0.0, np.zeros(2), False)

    def test_learning_starts_after_min_replay(self):
        agent = self.make_agent()
        losses = []
        for _ in range(12):
            loss = agent.observe(np.zeros(2), 0, 0.0, np.zeros(2), False)
            losses.append(loss)
        assert all(loss is None for loss in losses[:7])
        assert any(loss is not None for loss in losses[8:])

    def test_agent_learns_better_action(self):
        agent = self.make_agent()
        env = _LineEnvironment()
        train_agent(agent, env, episodes=30, rng=np.random.default_rng(0))
        state = env.reset()
        q = agent.q_values(state)
        assert q[1] > q[0]

    def test_greedy_policy_matches_argmax(self):
        agent = self.make_agent()
        policy = agent.greedy_policy()
        state = np.array([0.2, 0.8])
        assert policy(state) == int(agent.q_values(state).argmax())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DDQNConfig(state_dim=0, num_actions=2)
        with pytest.raises(ValueError):
            DDQNConfig(state_dim=2, num_actions=2, min_replay_size=4, batch_size=8)


class TestGroupingEnvironment:
    def test_state_dimension(self, rng):
        env = GroupingEnvironment(GroupingEnvConfig(seed=1))
        state = env.reset(rng)
        assert state.shape == (STATE_DIM,)

    def test_step_before_reset_raises(self):
        env = GroupingEnvironment()
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_episode_terminates(self, rng):
        config = GroupingEnvConfig(episode_length=3, seed=1)
        env = GroupingEnvironment(config)
        env.reset(rng)
        dones = [env.step(0).done for _ in range(3)]
        assert dones == [False, False, True]

    def test_action_to_k_mapping(self):
        config = GroupingEnvConfig(min_groups=2, max_groups=5)
        assert config.num_actions == 4
        assert config.action_to_k(0) == 2
        assert config.action_to_k(3) == 5
        with pytest.raises(ValueError):
            config.action_to_k(4)

    def test_reward_penalises_more_groups_for_two_blob_data(self, rng):
        """With two clear blobs, K=2 should out-reward the maximum K."""

        def two_blobs(generator):
            a = generator.normal(0.0, 0.3, size=(10, 4)) + 5.0
            b = generator.normal(0.0, 0.3, size=(10, 4)) - 5.0
            return np.vstack([a, b])

        config = GroupingEnvConfig(min_groups=2, max_groups=6, seed=2)
        env = GroupingEnvironment(config, feature_provider=two_blobs)
        env.reset(rng)
        reward_k2 = env.step(0).reward
        env.reset(rng)
        reward_kmax = env.step(config.num_actions - 1).reward
        assert reward_k2 > reward_kmax

    def test_invalid_k_penalised(self, rng):
        def tiny(generator):
            return generator.normal(size=(3, 4))

        config = GroupingEnvConfig(min_groups=2, max_groups=8, invalid_penalty=-1.0, seed=0)
        env = GroupingEnvironment(config, feature_provider=tiny)
        env.reset(rng)
        outcome = env.step(config.num_actions - 1)  # K=8 > 3 users
        assert outcome.reward == pytest.approx(-1.0)

    def test_grouping_state_permutation_invariant(self, rng):
        features = rng.normal(size=(12, 5))
        state_a = grouping_state(features, 3, 0.5, 8)
        state_b = grouping_state(features[rng.permutation(12)], 3, 0.5, 8)
        np.testing.assert_allclose(state_a, state_b, rtol=1e-9)

    def test_snapshot_replay_environment_cycles(self, rng):
        snapshots = [rng.normal(size=(8, 4)), rng.normal(size=(10, 4))]
        env = SnapshotReplayEnvironment(snapshots=snapshots, config=GroupingEnvConfig(episode_length=4))
        state = env.reset(rng)
        assert state.shape == (STATE_DIM,)
        outcome = env.step(0)
        assert np.isfinite(outcome.reward)


def _broadcast_upper_distances(features):
    """Upper-triangle distances via the full ``n x n x d`` difference tensor."""
    diffs = features[:, None, :] - features[None, :, :]
    distances = np.sqrt((diffs**2).sum(axis=-1))
    return distances[np.triu_indices(features.shape[0], k=1)]


def _broadcast_grouping_state(features, previous_k, previous_quality, max_groups):
    """The ``n x n x d`` form ``grouping_state`` must reproduce bit for bit."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    num_users = features.shape[0]
    if num_users == 0:
        return np.zeros(STATE_DIM)
    centred = features - features.mean(axis=0, keepdims=True)
    spread = float(np.sqrt((centred**2).sum(axis=1)).mean())
    if num_users > 1:
        upper = _broadcast_upper_distances(features)
        mean_dist, min_dist, max_dist = float(upper.mean()), float(upper.min()), float(upper.max())
    else:
        mean_dist = min_dist = max_dist = 0.0
    return np.array(
        [
            num_users / 100.0,
            spread,
            mean_dist,
            min_dist,
            max_dist,
            previous_k / max(max_groups, 1),
            previous_quality,
            features.shape[1] / 64.0,
        ],
        dtype=np.float64,
    )


class TestGroupingStateExactness:
    @pytest.mark.parametrize("num_users", [1, 2, 3, 9, 17, 130])
    @pytest.mark.parametrize("dim", [1, 3, 8, 13])
    def test_row_buffer_equals_broadcast_form(self, num_users, dim):
        features = np.random.default_rng(num_users * 100 + dim).normal(0.0, 4.0, size=(num_users, dim))
        upper = env_module._upper_pairwise_distances(features)
        assert np.array_equal(upper, _broadcast_upper_distances(features))
        for previous in ((0, 0.0), (5, 0.375)):
            assert np.array_equal(
                grouping_state(features, *previous, 8),
                _broadcast_grouping_state(features, *previous, 8),
            )

    def test_empty_snapshot_state_is_zero(self):
        assert np.array_equal(grouping_state(np.zeros((0, 4)), 3, 0.5, 8), np.zeros(STATE_DIM))


class _StateCheckingEnvironment(Environment):
    """Delegates to a replay environment and checks every state it returns
    against a fresh :func:`grouping_state` of the snapshot on show."""

    def __init__(self, env: SnapshotReplayEnvironment) -> None:
        self.env = env
        self.state_dim = env.state_dim
        self.num_actions = env.num_actions
        self.checked = 0

    def _check(self, state):
        env = self.env
        expected = grouping_state(
            env._features, env._previous_k, env._previous_quality, env.config.max_groups
        )
        assert np.array_equal(state, expected)
        self.checked += 1

    def reset(self, rng=None):
        state = self.env.reset(rng)
        self._check(state)
        return state

    def step(self, action):
        outcome = self.env.step(action)
        self._check(outcome.state)
        return outcome


def _replay_snapshots():
    rng = np.random.default_rng(11)
    return [rng.normal(size=(n, 6)) for n in (12, 30, 9)]


def _small_grouping_agent(config):
    return DDQNAgent(
        DDQNConfig(
            state_dim=STATE_DIM,
            num_actions=config.num_actions,
            hidden_sizes=(16,),
            batch_size=8,
            min_replay_size=8,
            seed=0,
        )
    )


class TestSnapshotReplayCache:
    def test_every_state_equals_fresh_grouping_state(self):
        config = GroupingEnvConfig(max_groups=6, episode_length=5, seed=2)
        checker = _StateCheckingEnvironment(
            SnapshotReplayEnvironment(snapshots=_replay_snapshots(), config=config)
        )
        train_agent(_small_grouping_agent(config), checker, episodes=4, rng=np.random.default_rng(0))
        assert checker.checked == 4 * (1 + config.episode_length)

    def test_summary_computed_once_per_snapshot(self, monkeypatch):
        summarised = []
        original = env_module.snapshot_summary

        def counting(features):
            summarised.append(features.shape[0])
            return original(features)

        monkeypatch.setattr(env_module, "snapshot_summary", counting)
        snapshots = _replay_snapshots()
        config = GroupingEnvConfig(max_groups=6, episode_length=5, seed=2)
        env = SnapshotReplayEnvironment(snapshots=snapshots, config=config)
        result = train_agent(_small_grouping_agent(config), env, episodes=4, rng=np.random.default_rng(0))
        assert sum(result.episode_lengths) == 20
        assert sorted(summarised) == sorted(snapshot.shape[0] for snapshot in snapshots)

    def test_replay_matches_synthetic_environment_on_the_same_snapshots(self):
        snapshots = _replay_snapshots()
        config = GroupingEnvConfig(max_groups=6, episode_length=4, seed=5)
        cursor = iter(snapshots * 10)
        synthetic = GroupingEnvironment(config, feature_provider=lambda _rng: next(cursor))
        replay = SnapshotReplayEnvironment(snapshots=snapshots, config=config)
        for env in (synthetic, replay):
            env.reset(np.random.default_rng(3))
        for action in (0, 3, 1, 4, 2, 2):
            a, b = synthetic.step(action), replay.step(action)
            assert np.array_equal(a.state, b.state)
            assert (a.reward, a.done, a.info) == (b.reward, b.done, b.info)
            if a.done:
                for env in (synthetic, replay):
                    env.reset(np.random.default_rng(3))


class TestTrainingLoop:
    def test_train_agent_returns_per_episode_data(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        result = train_agent(
            agent, _LineEnvironment(), episodes=5, rng=np.random.default_rng(0)
        )
        assert result.num_episodes == 5
        assert len(result.episode_lengths) == 5
        assert all(length == 10 for length in result.episode_lengths)

    def test_train_agent_dimension_mismatch_raises(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=3, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        with pytest.raises(ValueError):
            train_agent(
                agent, _LineEnvironment(), episodes=1, rng=np.random.default_rng(0)
            )

    def test_train_agent_requires_rng(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        with pytest.raises(ValueError, match="explicit rng"):
            train_agent(agent, _LineEnvironment(), episodes=1)
        with pytest.raises(ValueError, match="explicit rng"):
            evaluate_agent(agent, _LineEnvironment(), episodes=1)

    def test_evaluate_agent_uses_greedy_policy(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        train_agent(
            agent, _LineEnvironment(), episodes=20, rng=np.random.default_rng(0)
        )
        result = evaluate_agent(
            agent, _LineEnvironment(), episodes=3, rng=np.random.default_rng(1)
        )
        assert result.num_episodes == 3
        # A trained greedy agent should always pick action 1 and earn +10.
        assert result.mean_return() > 0

    def test_mean_return_window(self):
        agent = DDQNAgent(
            DDQNConfig(state_dim=2, num_actions=2, hidden_sizes=(8,), batch_size=8, min_replay_size=8)
        )
        result = train_agent(
            agent, _LineEnvironment(), episodes=6, rng=np.random.default_rng(0)
        )
        assert np.isfinite(result.mean_return(last=2))

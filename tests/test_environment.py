"""Dialogue environment: candidates, rewards, histories, bounds."""

import numpy as np
import pytest

from chatdqn import make_toy_corpus, make_toy_embeddings
from chatdqn.corpus import Corpus, Dialogue, Turn, sample_distractors
from chatdqn.embeddings import embed_corpus, embed_texts
from chatdqn.environment import (
    DialogueEnv,
    baseline_bounds,
    candidate_of_cluster,
    episode_reward,
)

from conftest import topic_cluster_model


@pytest.fixture(scope="module")
def world():
    n_topics = 5
    table = make_toy_embeddings(n_topics, dim=8, seed=11)
    corpus = make_toy_corpus(20, topics=range(n_topics), seed=11)
    model = topic_cluster_model(table, n_topics)
    vectors, _ = embed_corpus(corpus, table)
    env = DialogueEnv(corpus, model, vectors, candidates=3,
                      rng=np.random.default_rng(0))
    return table, corpus, model, env


def _texts(env, state):
    """History texts; sentence ids count the corpus's turns in order."""
    flat = [t.text for d in env.corpus.dialogues for t in d.turns]
    return [flat[i] for i in state.history_ids]


def _sentences(env, cands):
    """Candidate texts, read through the corpus's turn index."""
    return [env.corpus.turn_index[1][i] for i in cands.sentence_ids]


# ---------------------------------------------------------------------------
# reset


def test_reset_history_is_opening_sentence(world):
    table, corpus, model, env = world
    d = corpus.dialogues[0]
    state = env.reset(d)
    assert _texts(env, state) == [d.turns[0].text]
    assert not state.done
    assert state.turn_index == 1  # the first agent turn


def test_reset_idempotent(world):
    _, corpus, _, env = world
    d = corpus.dialogues[1]
    s1, s2 = env.reset(d), env.reset(d)
    assert s1.turn_index == s2.turn_index
    assert s1.history_ids == s2.history_ids


def test_reset_state_embedding_matches_embed_history(world):
    table, corpus, _, env = world
    d = corpus.dialogues[2]
    state = env.reset(d)
    X, lengths = env.batch_states([state.history_ids])
    assert X.shape == (1, 1, table.dim)
    assert lengths[0] == 1
    np.testing.assert_array_equal(X[0], embed_texts(_texts(env, state), table))


def test_reset_rejects_env_only_dialogue(world):
    _, _, _, env = world
    bad = Dialogue(id="solo", turns=(Turn("env", "hi"),))
    with pytest.raises(ValueError):
        env.reset(bad)


# ---------------------------------------------------------------------------
# candidates


def test_candidates_shape_and_truth_membership(world):
    _, corpus, model, env = world
    rng = np.random.default_rng(1)
    for d in corpus.dialogues[:5]:
        state = env.reset(d)
        cands = env.make_candidates(state, rng)
        assert len(cands.sentence_ids) == 3
        assert 0 <= cands.truth_index < 3
        truth = _sentences(env, cands)[cands.truth_index]
        assert truth == d.turns[state.turn_index].text
        assert len(cands.action_ids) == 3
        assert all(0 <= a < model.k for a in cands.action_ids)


def test_candidates_distractors_never_from_active_dialogue(world):
    _, corpus, _, env = world
    rng = np.random.default_rng(2)
    d = corpus.dialogues[3]
    own = {t.text for t in d.turns}
    for _ in range(100):
        state = env.reset(d)
        cands = env.make_candidates(state, rng)
        for i, s in enumerate(_sentences(env, cands)):
            if i != cands.truth_index:
                assert s not in own


def test_candidates_distractors_are_sample_distractors_draw(world):
    # the env draws its c-1 distractors through the corpus sampler, then
    # shuffles: an identically seeded rng reproduces the candidate ids
    _, corpus, _, env = world
    for seed in range(5):
        d = corpus.dialogues[seed]
        state = env.reset(d)
        cands = env.make_candidates(state, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        picked = sample_distractors(env.corpus, d.id, env.candidates - 1, rng)
        truth = state.history_ids[0] + state.turn_index
        ids = np.array([truth] + picked)[rng.permutation(env.candidates)]
        assert cands.sentence_ids == tuple(int(i) for i in ids)
        assert cands.sentence_ids[cands.truth_index] == truth


def test_candidates_truth_position_varies(world):
    _, corpus, _, env = world
    rng = np.random.default_rng(3)
    d = corpus.dialogues[4]
    seen = set()
    for _ in range(60):
        state = env.reset(d)
        seen.add(env.make_candidates(state, rng).truth_index)
    assert seen == {0, 1, 2}  # order is shuffled


def test_candidates_single_candidate_config(world):
    table, corpus, model, env = world
    env1 = DialogueEnv(corpus, model, embed_corpus(corpus, table)[0], candidates=1,
                       rng=np.random.default_rng(4))
    state = env1.reset(corpus.dialogues[0])
    cands = env1.make_candidates(state, np.random.default_rng(5))
    assert len(cands.sentence_ids) == 1
    assert cands.truth_index == 0
    # any policy earns +1
    _, r, _ = env1.step(state, cands.action_ids[0], cands)
    assert r == 1


# ---------------------------------------------------------------------------
# step


def test_step_truth_cluster_rewards_plus_one(world):
    _, corpus, _, env = world
    rng = np.random.default_rng(6)
    d = corpus.dialogues[5]
    state = env.reset(d)
    cands = env.make_candidates(state, rng)
    truth_id = cands.action_ids[cands.truth_index]
    nxt, r, done = env.step(state, truth_id, cands)
    assert r == 1
    # uttered sentence is the scripted truth, then the env's scripted reply
    history = _texts(env, nxt)
    assert history[1] == _sentences(env, cands)[cands.truth_index]
    assert history[1] == d.turns[1].text
    if len(d.turns) > 2:
        assert history[2] == d.turns[2].text


def test_step_wrong_cluster_rewards_minus_one(world):
    _, corpus, _, env = world
    rng = np.random.default_rng(7)
    d = corpus.dialogues[6]
    state = env.reset(d)
    for _ in range(50):
        cands = env.make_candidates(state, rng)
        truth_id = cands.action_ids[cands.truth_index]
        wrong = [a for a in cands.action_ids if a != truth_id]
        if not wrong:
            continue  # collision-only set; resample
        nxt, r, done = env.step(state, wrong[0], cands)
        assert r == -1
        # uttered sentence comes from the chosen cluster's candidates
        history = _texts(env, nxt)
        pool = [s for s, a in zip(_sentences(env, cands), cands.action_ids)
                if a == wrong[0]]
        assert history[1] in pool
        # the env reply still follows the script
        if len(d.turns) > 2:
            assert history[2] == d.turns[2].text
        return
    pytest.fail("never saw a collision-free candidate set")


def test_step_collision_rule_rewards_truth_cluster(world):
    # one cluster only: every candidate collides with the truth; choosing
    # that cluster is a +1 because the reward keys on the truth's cluster id
    table, corpus, _, env = world
    degenerate = topic_cluster_model(table, 1)
    env1 = DialogueEnv(corpus, degenerate, embed_corpus(corpus, table)[0], candidates=3,
                       rng=np.random.default_rng(8))
    state = env1.reset(corpus.dialogues[0])
    cands = env1.make_candidates(state, np.random.default_rng(9))
    assert set(cands.action_ids) == {0}
    _, r, _ = env1.step(state, 0, cands)
    assert r == 1


def test_candidate_of_cluster_draws_only_among_several():
    # a lone candidate of the cluster takes no draw; several take one
    # uniform draw over them, in candidate order
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    assert candidate_of_cluster((7, 8, 9), (1, 2, 3), 2, rng) == 8
    assert rng.bit_generator.state == ref.bit_generator.state
    expected = (7, 9)[int(ref.integers(2))]
    assert candidate_of_cluster((7, 8, 9), (1, 2, 1), 1, rng) == expected
    assert rng.bit_generator.state == ref.bit_generator.state


def test_step_rejects_non_candidate_action(world):
    _, corpus, _, env = world
    state = env.reset(corpus.dialogues[7])
    cands = env.make_candidates(state, np.random.default_rng(10))
    outside = max(cands.action_ids) + 1
    with pytest.raises(ValueError):
        env.step(state, outside, cands)


def test_full_episode_history_and_termination(world):
    _, corpus, _, env = world
    rng = np.random.default_rng(11)
    d = corpus.dialogues[8]
    state = env.reset(d)
    rewards = []
    while not state.done:
        cands = env.make_candidates(state, rng)
        truth_id = cands.action_ids[cands.truth_index]
        state, r, _ = env.step(state, truth_id, cands)
        rewards.append(r)
    assert len(rewards) == d.n_agent_turns
    assert all(r == 1 for r in rewards)
    assert _texts(env, state) == [t.text for t in d.turns]
    assert episode_reward(rewards) == d.n_agent_turns
    # all-wrong mirror: episode reward is -#agent turns
    assert episode_reward([-r for r in rewards]) == -d.n_agent_turns


def test_batch_states_matches_embed_history(world):
    table, corpus, _, env = world
    rng = np.random.default_rng(12)
    d = corpus.dialogues[9]
    state = env.reset(d)
    for _ in range(2):
        cands = env.make_candidates(state, rng)
        state, _, _ = env.step(state, cands.action_ids[cands.truth_index],
                               cands)
    X, lengths = env.batch_states([state.history_ids])
    texts = _texts(env, state)
    assert X.shape == (1, len(texts), table.dim)
    assert lengths[0] == len(texts)
    # rows match the per-sentence embedding of each history sentence
    np.testing.assert_array_equal(X[0], embed_texts(texts, table))


def test_batch_states_pads_with_zero_rows(world):
    table, corpus, _, env = world
    d = corpus.dialogues[10]
    ids = env.reset(d).history_ids + (5, 7)
    X, lengths = env.batch_states([ids, ids[:1], ()])
    assert X.shape == (3, 3, table.dim)
    assert list(lengths) == [3, 1, 0]
    np.testing.assert_array_equal(X[0], embed_corpus(corpus, table)[0][list(ids)])
    np.testing.assert_array_equal(X[1, 0], X[0, 0])
    assert np.all(X[1, 1:] == 0.0)
    assert np.all(X[2] == 0.0)
    # a batch of one empty history still has one (zero) time step
    X, lengths = env.batch_states([()])
    assert X.shape == (1, 1, table.dim) and lengths[0] == 0
    assert np.all(X == 0.0)


def test_env_rejects_vectors_of_another_corpus(world):
    table, corpus, model, _ = world
    with pytest.raises(ValueError, match="sentence vectors"):
        DialogueEnv(corpus, model, embed_corpus(corpus, table)[0][:-1])


# ---------------------------------------------------------------------------
# episode_reward / baseline_bounds


def test_episode_reward_basics():
    assert episode_reward([]) == 0
    assert episode_reward([1, -1, 1]) == 1
    assert episode_reward([-1, 1, 1]) == 1


def test_baseline_bounds_single_dialogue():
    turns = tuple(
        Turn("env" if i % 2 == 0 else "agent", f"s{i}") for i in range(6)
    )
    d = Dialogue(id="x", turns=turns)  # 3 agent turns
    upper, lower, rand = baseline_bounds([d], candidates=3)
    assert (upper, lower, rand) == (3.0, -3.0, -1.0)


def test_baseline_bounds_c1_forces_correctness():
    turns = tuple(
        Turn("env" if i % 2 == 0 else "agent", f"s{i}") for i in range(4)
    )
    d = Dialogue(id="x", turns=turns)
    upper, lower, rand = baseline_bounds([d], candidates=1)
    assert rand == upper == 2.0


def test_baseline_bounds_mean_over_dialogues():
    def dlg(did, n):
        return Dialogue(id=did, turns=tuple(
            Turn("env" if i % 2 == 0 else "agent", f"{did}{i}")
            for i in range(n)
        ))

    ds = [dlg("a", 4), dlg("b", 8)]  # 2 and 4 agent turns
    upper, lower, rand = baseline_bounds(ds, candidates=3)
    assert upper == 3.0 and lower == -3.0
    assert rand == pytest.approx(3.0 * (2 / 3 - 1))

"""``ad.KVCache``: a stream's keys and values in the layout attention reads,
grown by doubling, written only at new rows, and shared copy-on-write
between a ``model.StreamState`` and its forks."""

import numpy as np
import pytest

from simulst import autodiff as ad
from simulst import model, streaming
from simulst.data import EOS


def rows(rng, n, width):
    return rng.normal(size=(n, width)).astype(np.float32)


def small_cfg(**kw):
    base = dict(d_feat=6, n_blocks=1, conv_lookahead=(0, 0, 1), transformer_layers_per_block=1, d_model=16,
                n_heads=2, ffn_dim=32, semantic_layers=1, decoder_layers=1, src_vocab_size=8, tgt_vocab_size=8,
                dropout=0.0, wait_k=2, stride_n=2)
    base.update(kw)
    return model.ModelConfig(**base)


def held_rows(state: model.StreamState) -> dict:
    """Copies of every cache's key and value rows."""
    return {name: [a.copy() for a in cache] for name, cache in state.kv.items()}


def assert_same_rows(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert [x.tobytes() for x in a[name]] == [x.tobytes() for x in b[name]], name


class TestCache:
    def test_a_cache_of_rows_copies_the_keys_once_views_the_values_and_gives_them_back(self):
        rng = np.random.default_rng(0)
        k, v = rows(rng, 5, 8), rows(rng, 5, 6)
        cache = ad.KVCache.of_rows(k, v, n_heads=2)
        assert (cache.n, cache.capacity, cache.kt.shape, cache.vh.shape) == (5, 5, (2, 4, 5), (2, 5, 3))
        assert cache.kt.flags.c_contiguous and not np.shares_memory(cache.kt, k)  # k^T as attention reads it
        assert np.shares_memory(cache.vh, v)
        np.testing.assert_array_equal(cache.kt[1], k[:, 4:].T)  # head 1's keys, transposed
        np.testing.assert_array_equal(cache.vh[1], v[:, 3:])
        keys, values = cache
        assert keys.tobytes() == k.tobytes() and values.tobytes() == v.tobytes()

    def test_appends_write_in_place_and_double_the_capacity_when_full(self):
        rng = np.random.default_rng(1)
        k, v = rows(rng, 20, 8), rows(rng, 20, 8)
        kept = k.copy()
        cache, capacities = ad.KVCache.of_rows(k[:1], v[:1], n_heads=2), [1]
        for i in range(1, 20):
            before = cache.kt
            cache = cache.append(k[i:i + 1], v[i:i + 1])
            if cache.capacity != capacities[-1]:
                capacities.append(cache.capacity)
            else:
                assert cache.kt is before  # room left: the row went into the same buffer
        assert capacities == [1, 2, 4, 8, 16, 32]
        keys, values = cache
        assert keys.tobytes() == k.tobytes() and values.tobytes() == v.tobytes()
        assert k.tobytes() == kept.tobytes()  # the rows the first cache viewed were never written

    def test_a_cache_whose_room_another_cache_took_copies(self):
        rng = np.random.default_rng(2)
        k, v = rows(rng, 6, 8), rows(rng, 6, 8)
        base = ad.KVCache.of_rows(k[:2], v[:2], 2).append(k[2:3], v[2:3])  # 3 rows, room for 4
        first = base.append(k[3:4], v[3:4])
        assert first.kt is base.kt  # the first to append writes into the shared room
        second = base.append(k[4:5], v[4:5])  # would fit the room
        assert not np.shares_memory(second.kt, base.kt)  # the room is taken: it copies
        for cache, want in ((base, [0, 1, 2]), (first, [0, 1, 2, 3]), (second, [0, 1, 2, 4])):
            keys, values = cache
            assert keys.tobytes() == k[want].tobytes() and values.tobytes() == v[want].tobytes()

    def test_rows_of_another_width_rejected(self):
        rng = np.random.default_rng(3)
        cache = ad.KVCache.of_rows(rows(rng, 2, 8), rows(rng, 2, 8), 2)
        with pytest.raises(ad.ShapeError, match="KVCache"):
            cache.append(rows(rng, 1, 6), rows(rng, 1, 8))
        with pytest.raises(ad.ShapeError, match="KVCache"):
            ad.KVCache.of_rows(rows(rng, 2, 8), rows(rng, 3, 8), 2)


def test_a_stream_through_three_doublings_matches_offline_and_one_frame_pushes():
    feats = np.random.default_rng(4).normal(size=(120, 6)).astype(np.float32)
    with ad.using_dtype(np.float64):
        m = model.Model(small_cfg(), seed=0)
        with ad.no_grad():
            offline, offline_post = m.acoustic_encode(feats)
        finalized, capacities = [], []
        for chunk in (8, 1):
            session, seen = streaming.StreamSession(m), []
            for at in range(0, len(feats), chunk):
                session.push_frames(feats[at:at + chunk])
                cache = session._enc_state.kv.get("acoustic.block0.tf0.attn")
                if cache is not None and cache.capacity not in seen:
                    seen.append(cache.capacity)
            session.end_stream()
            finalized.append(session._finalized())
            capacities.append(seen)
    # a push of 8 frames may grow a cache more than once; either way by doubling, at least three times
    assert len(capacities[0]) >= 4 and capacities[0][-1] == capacities[1][-1]
    assert all(b == 2 * a for seen in capacities for a, b in zip(seen, seen[1:]))
    (states, post), (one_states, one_post) = finalized
    assert states.tobytes() == one_states.tobytes() and post.tobytes() == one_post.tobytes()
    np.testing.assert_allclose(states, offline.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post, offline_post.data, rtol=0, atol=1e-12)
    # the whole session, whose decoder caches also grow and fork, is as chunking-invariant
    m = model.Model(small_cfg(), seed=0)
    runs = [streaming.translate_stream(m, feats, chunk_frames=chunk) for chunk in (8, 1)]
    assert runs[0].tokens == runs[1].tokens and runs[0].record == runs[1].record
    assert sorted(runs[0].trace) == sorted(runs[1].trace)


def test_forks_and_their_parent_keep_each_others_rows():
    rng = np.random.default_rng(5)
    m = model.Model(small_cfg(), seed=0)
    units = ad.Tensor(rows(rng, 5, 16))
    none = ad.Tensor(rows(rng, 0, 16))

    def extend(state, ids, new_units, counts, lengths=None):
        return m.decode_logits(np.array(ids), new_units, ad.Blocks([len(ids)], [counts[-1]], counts),
                               state=state, lengths=lengths).data

    with ad.no_grad():
        states = [model.StreamState(), model.StreamState()]  # the second is never forked
        for state in states:
            extend(state, [EOS, 3, 4], ad.Tensor(units.data[:4]), [2, 3, 4])
            extend(state, [5], none, [4])  # 4 rows: room left after them
        parent, alone = states
        before = held_rows(parent)
        fork = parent.fork()
        extend(fork, [6, 7], none, [4, 4], lengths=[1, 1])  # two beam hypotheses of one row
        assert fork.kv["decoder.tf0.attn"].kt is parent.kv["decoder.tf0.attn"].kt  # written into the room
        assert_same_rows(held_rows(parent), before)
        assert parent.rows == 4 and all(cache.n == 4 for cache in parent.kv.values())  # 4 rows, 4 units
        forked = held_rows(fork)
        # the parent is extended after the fork, over the room the fork took, by another row and a unit
        got = extend(parent, [3], ad.Tensor(units.data[4:]), [5])
        want = extend(alone, [3], ad.Tensor(units.data[4:]), [5])
    assert_same_rows(held_rows(fork), forked)
    assert got.tobytes() == want.tobytes()
    assert_same_rows(held_rows(parent), held_rows(alone))

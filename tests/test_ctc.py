import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import autodiff as ad
from simulst import ctc
from conftest import central_difference, relative_error


def brute_force_nll(grid: np.ndarray, labels) -> float:
    """Oracle: enumerate every path, keep those collapsing to the labels."""
    t_frames, width = grid.shape
    blank = width - 1
    target = list(labels)
    total = 0.0
    for path in itertools.product(range(width), repeat=t_frames):
        collapsed = []
        prev = None
        for p in path:
            if p != prev and p != blank:
                collapsed.append(p)
            prev = p
        if collapsed == target:
            prob = 1.0
            for t, p in enumerate(path):
                prob *= grid[t, p]
            total += prob
    if total == 0.0:
        return math.inf
    return -math.log(total)


def boundary_rule_reference(path):
    """Straightforward re-implementation of the boundary rule on label paths."""
    cuts = []
    for t in range(len(path) - 1):
        if path[t] != ctc.BLANK and path[t + 1] != path[t]:
            cuts.append(t + 1)
    edges = [0] + cuts + [len(path)]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def collapse_path(path) -> list[int]:
    """The many-to-one path mapping: merge consecutive repeats, drop blanks."""
    out: list[int] = []
    prev = None
    for label in path:
        if label != prev:
            if label != ctc.BLANK:
                out.append(int(label))
            prev = label
    return out


def random_grid(rng, t_frames, width):
    logits = rng.normal(size=(t_frames, width)) * 2.0
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_grid(grid) -> ad.Tensor:
    """ctc_nll's input: the grid's log posteriors, in float64."""
    with np.errstate(divide="ignore"):
        return ad.Tensor(np.log(np.asarray(grid, dtype=np.float64)), dtype=np.float64)


def two_loop_nll(log_posteriors: np.ndarray, labels):
    """Oracle: the forward-backward algorithm with a separate backward loop
    and its own skip rule, in the arithmetic ctc_nll had before its beta
    became the forward recursion over the reversed lattice. Returns the
    loss and its gradient w.r.t. the log posteriors, in their dtype."""
    labels = np.asarray(labels, dtype=np.int64)
    t_frames, width = log_posteriors.shape
    blank = width - 1
    ext = np.full(2 * labels.size + 1, blank, dtype=np.int64)
    ext[1::2] = labels
    n_states = ext.size
    lab = log_posteriors.astype(np.float64)[:, ext]
    alpha = np.full((t_frames, n_states), -np.inf)
    alpha[0, 0] = lab[0, 0]
    alpha[0, 1] = lab[0, 1]
    skip_ok = np.zeros(n_states, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    for t in range(1, t_frames):
        stay = alpha[t - 1]
        prev = np.concatenate([[-np.inf], alpha[t - 1, :-1]])
        acc = np.logaddexp(stay, prev)
        skip = np.concatenate([[-np.inf, -np.inf], alpha[t - 1, :-2]])
        acc = np.where(skip_ok, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + lab[t]
    log_z = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    beta = np.full((t_frames, n_states), -np.inf)
    beta[-1, -1] = 0.0
    beta[-1, -2] = 0.0
    for t in range(t_frames - 2, -1, -1):
        nxt = beta[t + 1] + lab[t + 1]
        stay = nxt
        succ = np.concatenate([nxt[1:], [-np.inf]])
        acc = np.logaddexp(stay, succ)
        skip_to = np.concatenate([skip_ok[2:], [False, False]])
        skip = np.concatenate([nxt[2:], [-np.inf, -np.inf]])
        acc = np.where(skip_to, np.logaddexp(acc, skip), acc)
        beta[t] = acc
    grad = np.zeros_like(log_posteriors, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        contrib = np.exp(alpha + beta - log_z)
    contrib[~np.isfinite(contrib)] = 0.0
    np.subtract.at(grad.T, ext, contrib.T)
    return np.asarray(-log_z, dtype=log_posteriors.dtype), 1.0 * grad.astype(log_posteriors.dtype)


class TestCtcNll:
    def test_single_forced_path(self):
        grid = log_grid([[1.0, 0.0]])  # V={a}, p(a)=1
        assert ctc.ctc_nll(grid, [0]).item() == pytest.approx(0.0, abs=1e-12)

    def test_two_frame_uniform(self):
        # paths collapsing to [a] among {aa, a_, _a, __}: all but __ -> p=0.75
        grid = log_grid(np.full((2, 2), 0.5))
        assert ctc.ctc_nll(grid, [0]).item() == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_repeat_needs_blank(self):
        grid = log_grid(np.full((2, 2), 0.5))
        with pytest.raises(ctc.InfeasibleAlignmentError):
            ctc.ctc_nll(grid, [0, 0])

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            ctc.ctc_nll(log_grid(np.full((2, 2), 0.5)), [])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(1, 7))
        n_vocab = int(rng.integers(1, 4))
        n_labels = int(rng.integers(1, 4))
        labels = rng.integers(0, n_vocab, size=n_labels)
        grid = random_grid(rng, t_frames, n_vocab + 1)
        expected = brute_force_nll(grid, labels)
        if math.isinf(expected):
            with pytest.raises(ctc.InfeasibleAlignmentError):
                ctc.ctc_nll(log_grid(grid), labels)
        else:
            got = ctc.ctc_nll(log_grid(grid), labels).item()
            assert got == pytest.approx(expected, abs=1e-9)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_two_loop_oracle_bit_for_bit(self, dtype):
        rng = np.random.default_rng(7)
        for trial in range(150):
            n_vocab = int(rng.integers(1, 5))  # one label makes every neighbour a repeat
            labels = rng.integers(0, n_vocab, size=int(rng.integers(1, 7)))
            need = ctc.min_path_length(labels)
            t_frames = need if trial % 3 == 0 else need + int(rng.integers(1, 6))
            logits = rng.normal(scale=3.0, size=(t_frames, n_vocab + 1))
            log_post = (logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))).astype(dtype)
            ad.reset_tape()
            x = ad.Tensor(log_post, requires_grad=True, dtype=dtype)
            loss = ctc.ctc_nll(x, labels)
            ad.backward(loss)
            want_loss, want_grad = two_loop_nll(log_post, labels)
            assert loss.data.tobytes() == want_loss.tobytes()
            assert x.grad.tobytes() == want_grad.tobytes()


class TestCollapsePath:
    def test_blanks_and_repeats(self):
        assert collapse_path([ctc.BLANK, 0, 0, ctc.BLANK, 1]) == [0, 1]

    def test_all_blank(self):
        assert collapse_path([ctc.BLANK] * 3) == []

    def test_blank_separates_repeats(self):
        assert collapse_path([0, ctc.BLANK, 0]) == [0, 0]


class TestGreedyPath:
    def test_deterministic_rows(self):
        grid = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
        np.testing.assert_array_equal(ctc.greedy_path(grid), [0, 1, ctc.BLANK])

    def test_tie_prefers_token_over_blank(self):
        grid = np.array([[0.5, 0.5]])
        np.testing.assert_array_equal(ctc.greedy_path(grid), [0])

    def test_peaked_sequence(self):
        # rows peaked at a, a, blank, b
        grid = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.2, 0.7, 0.1]])
        np.testing.assert_array_equal(ctc.greedy_path(grid), [0, 0, ctc.BLANK, 1])


class TestDetectBoundaries:
    def test_figure_rule_example(self):
        ends = ctc.detect_boundaries([0, 0, ctc.BLANK, 1])
        np.testing.assert_array_equal(ends, [2, 4])

    def test_all_blank_single_segment(self):
        ends = ctc.detect_boundaries([ctc.BLANK] * 3)
        np.testing.assert_array_equal(ends, [3])

    def test_adjacent_tokens(self):
        ends = ctc.detect_boundaries([0, 1])
        np.testing.assert_array_equal(ends, [1, 2])

    def test_exhaustive_against_reference(self):
        # every path with T' <= 5 over V = {0, 1} plus blank
        alphabet = [0, 1, ctc.BLANK]
        for t_frames in range(1, 6):
            for path in itertools.product(alphabet, repeat=t_frames):
                got = ctc.detect_boundaries(list(path))
                assert got.tolist() == [end for _, end in boundary_rule_reference(list(path))]
                assert got[-1] == t_frames

    def test_segment_count_tracks_collapse(self):
        # n_seg == n_tok when the last frame closes a token; a trailing
        # blank run earns one extra segment; all-blank paths give one.
        alphabet = [0, 1, ctc.BLANK]
        for t_frames in range(1, 6):
            for path in itertools.product(alphabet, repeat=t_frames):
                n_seg = len(ctc.detect_boundaries(list(path)))
                n_tok = len(collapse_path(list(path)))
                if n_tok == 0:
                    assert n_seg == 1
                elif path[-1] == ctc.BLANK:
                    assert n_seg == n_tok + 1
                else:
                    assert n_seg == n_tok

    def test_incremental_scan_matches_one_scan(self):
        # a stream extends its path and rescans from its last old frame
        alphabet = [0, 1, ctc.BLANK]
        for path in itertools.product(alphabet, repeat=6):
            path = np.array(path)
            whole = ctc.boundary_cuts(path).tolist()
            for split in range(1, 6):
                head = ctc.boundary_cuts(path[:split]).tolist()
                tail = ctc.boundary_cuts(path, max(split - 1, 0)).tolist()
                assert head + tail == whole


class TestBlankPenalty:
    def test_no_blank_argmax_gives_zero(self):
        grid = ad.Tensor([[0.9, 0.1], [0.8, 0.2]])
        assert ctc.blank_penalty(grid).item() == pytest.approx(0.0)

    def test_three_blank_frames(self):
        grid = ad.Tensor(np.array([[0.1, 0.9]] * 3), dtype=np.float64)
        assert ctc.blank_penalty(grid).item() == pytest.approx(2.7, abs=1e-12)

    def test_monotone_in_selected_blank_mass(self):
        base = np.array([[0.2, 0.8], [0.45, 0.55], [0.9, 0.1]])
        lower = base.copy()
        lower[1] = [0.48, 0.52]  # same argmax, less blank mass
        p_base = ctc.blank_penalty(ad.Tensor(base, dtype=np.float64)).item()
        p_lower = ctc.blank_penalty(ad.Tensor(lower, dtype=np.float64)).item()
        assert p_lower < p_base

    def test_all_frames_mode(self):
        grid = ad.Tensor([[0.6, 0.4], [0.3, 0.7]], dtype=np.float64)
        assert ctc.blank_penalty(grid, mode="all_frames").item() == pytest.approx(1.1, abs=1e-12)


class TestBlankLimitedLoss:
    def test_lambda_zero_equals_nll(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, 4, 3)
        a = ctc.blank_limited_ctc_loss(log_grid(grid), ad.Tensor(grid, dtype=np.float64), [[0, 1]], [4],
                                       lam=0.0).item()
        b = ctc.ctc_nll(log_grid(grid), [0, 1]).item()
        assert a == b

    def test_weighted_sum(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng, 5, 3)
        nll = ctc.ctc_nll(log_grid(grid), [1]).item()
        pen = ctc.blank_penalty(ad.Tensor(grid, dtype=np.float64)).item()
        tot = ctc.blank_limited_ctc_loss(log_grid(grid), ad.Tensor(grid, dtype=np.float64), [[1]], [5],
                                         lam=0.5).item()
        assert tot == pytest.approx(nll + 0.5 * pen, rel=1e-12)

    def test_negative_lambda_rejected(self):
        grid = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            ctc.blank_limited_ctc_loss(log_grid(grid), ad.Tensor(grid), [[0]], [2], lam=-1.0)

    def test_packed_utterances_average_their_losses(self):
        # two utterances on one grid: the mean of their own losses
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 7, 3)
        labels, lengths = [[0, 1], [1]], [4, 3]
        parts = [(grid[:4], [0, 1], 4), (grid[4:], [1], 3)]
        each = [ctc.blank_limited_ctc_loss(log_grid(g), ad.Tensor(g, dtype=np.float64), [y], [n],
                                           lam=0.5).item() for g, y, n in parts]
        both = ctc.blank_limited_ctc_loss(log_grid(grid), ad.Tensor(grid, dtype=np.float64), labels,
                                          lengths, lam=0.5).item()
        assert both == pytest.approx(sum(each) / 2, rel=1e-12)
        with pytest.raises(ValueError, match="split"):
            ctc.blank_limited_ctc_loss(log_grid(grid), ad.Tensor(grid, dtype=np.float64), labels,
                                       [4, 4], lam=0.5)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.5]))
def test_loss_gradient_matches_finite_differences(seed, lam):
    rng = np.random.default_rng(seed)
    t_frames = int(rng.integers(2, 6))
    n_vocab = int(rng.integers(1, 4))
    labels = rng.integers(0, n_vocab, size=int(rng.integers(1, 3)))
    if ctc.min_path_length(labels) > t_frames:
        labels = labels[:1]
    logits = rng.normal(size=(t_frames, n_vocab + 1))
    # keep argmax decisions stable under the probe step
    gaps = np.sort(logits, axis=1)
    if (gaps[:, -1] - gaps[:, -2] < 1e-3).any():
        logits[:, 0] += 0.1

    def loss_of(lo):
        return ctc.blank_limited_ctc_loss(ad.log_softmax(lo, axis=-1), ad.softmax(lo, axis=-1), [labels],
                                          [t_frames], lam=lam)

    def f(lo):
        ad.reset_tape()
        with ad.using_dtype(np.float64):
            return loss_of(ad.Tensor(lo)).item()

    expected = central_difference(f, [logits])[0]
    ad.reset_tape()
    with ad.using_dtype(np.float64):
        lo = ad.Tensor(logits, requires_grad=True)
        ad.backward(loss_of(lo))
    assert relative_error(lo.grad, expected) < 1e-4


class TestShrinkQuality:
    def test_perfect_match(self):
        q = ctc.shrink_quality([3, 5, 2], [3, 5, 2])
        assert q == {2: 100.0, 4: 100.0, 6: 100.0}

    def test_single_diff_three(self):
        q = ctc.shrink_quality([7], [4])
        assert q == {2: 0.0, 4: 100.0, 6: 100.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ctc.shrink_quality([], [])

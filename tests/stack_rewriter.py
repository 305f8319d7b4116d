"""Reference for ``ncalg.LetterPushFold``: a per-word stack rewriter.

Each word on the stack is rewritten at its leftmost (or rightmost) redex
until no redex is left; nothing is memoised or shared between words, so
it is an independent second implementation of both strategies.
"""

from qe2.ncalg import (
    REWRITE_STEP_BUDGET,
    DiamondResult,
    NCPoly,
    RewriteBudgetExceeded,
    TowerError,
)
from qe2 import exprio


def word_reduce(tower, word, leftmost):
    """Rewrite a letter word to normal form, picking redexes at the
    leftmost (or rightmost) position; returns the resulting NCPoly."""
    ctx = tower.context
    result = {}
    stack = [(tuple(word), ctx.one)]
    steps = 0
    while stack:
        w, coeff = stack.pop()
        steps += 1
        if steps > REWRITE_STEP_BUDGET:
            raise RewriteBudgetExceeded(
                f"rewriting took more than {REWRITE_STEP_BUDGET} steps", witness=word
            )
        pos = _find_redex(w, leftmost)
        if pos is None:
            mono = _word_to_mono(tower, w)
            v = result.get(mono, ctx.zero) + coeff
            if v:
                result[mono] = v
            else:
                result.pop(mono, None)
            continue
        for nw, c in _rewrite_at(tower, w, pos):
            stack.append((nw, coeff * c))
    return NCPoly(tower, result)


def diamond_check(tower, words):
    """``ncalg.diamond_check`` over the given words, reduced by this module."""
    for word in words:
        left = word_reduce(tower, word, leftmost=True)
        right = word_reduce(tower, word, leftmost=False)
        engine = tower.word_to_poly(word)
        if left != right or left != engine:
            return DiamondResult(
                False,
                witness_word=tuple((tower.generators[j].name, e) for j, e in word),
                left_form=exprio.format_canonical(left),
                right_form=exprio.format_canonical(right),
            )
    return DiamondResult(True)


def _find_redex(w, leftmost):
    rng = range(len(w) - 1) if leftmost else range(len(w) - 2, -1, -1)
    for p in rng:
        (i, si), (j, sj) = w[p], w[p + 1]
        if i == j and si != sj:
            return p
        if i > j:
            return p
    return None


def _rewrite_at(tower, w, p):
    (i, si), (j, sj) = w[p], w[p + 1]
    pre, post = w[:p], w[p + 2 :]
    if i == j and si != sj:
        return [(pre + post, tower.context.one)]
    out = []
    if si == 1:
        # g_i g_j^sj = sigma_i(g_j^sj) g_i + delta_i(g_j^sj)
        s_img = tower._sigma_img(i, j, sj)
        d_img = tower._delta_img(i, j, sj)
        for mono, c in s_img.terms.items():
            out.append((pre + _mono_to_word(mono) + ((i, 1),) + post, c))
        for mono, c in d_img.terms.items():
            out.append((pre + _mono_to_word(mono) + post, c))
    else:
        # inverse letters only for diagonal sigma, zero delta
        diag = tower._sigma_inv_diag[i]
        c = diag[j] ** (-sj)
        out.append((pre + ((j, sj), (i, -1)) + post, c))
    return out


def _mono_to_word(mono):
    word = []
    for j, e in enumerate(mono):
        if e:
            s = 1 if e > 0 else -1
            word.extend([(j, s)] * abs(e))
    return tuple(word)


def _word_to_mono(tower, w):
    mono = [0] * tower.nlevels
    for j, s in w:
        mono[j] += s
    for j, e in enumerate(mono):
        if e < 0 and not tower.generators[j].invertible:
            raise TowerError("negative exponent on non-invertible generator")
    return tuple(mono)

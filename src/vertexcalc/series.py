"""Sparse exact multivariate Laurent series on declared coefficient windows.

A WindowedSeries stores exact coefficients for the monomials it knows about.
In each variable it is either *exact*, complete everywhere in that direction,
or known only on a *knowledge window* (lo, hi): coefficients with that
variable's exponent inside the window are complete, outside they are unknown.
``window`` maps each inexact variable to its knowledge window; a variable not
in it is exact.  Every product the package forms has an exact factor in each
variable (a slot of a finite member is a Laurent polynomial, and each pole
statement is cleared by a binomial power), so a product is a finite
convolution, and one with no exact factor in some variable is refused.

Every binomial power (s_h x_h + s_t x_t)^n, whatever the sign of n, is
expanded in nonnegative powers of its tail x_t (the formal-calculus
convention).  ``add_power`` is the one place that writes this expansion out,
for a range kmin..kmax of tail powers; ``binomial_power``,
``taylor_substitute``, ``apply_delta`` and the rational forms of
``rationalforms`` all call it.  Each such operation makes one memo of signed
binomial rows that its calls share, and drops it when it returns.
``apply_delta`` picks the range per term so that it writes only coefficients
inside its output window, and visits only the delta indices whose range is
not empty.  A scalar coefficient is summed directly.  A stacked coefficient
(a ``Vec`` over labels) is summed label by label, in place, into one plain
dict per key; ``apply_delta`` and ``taylor_substitute`` make each key's
``Vec`` once, after the last write, so labels never mix and no ``Vec`` is
built per write.

A coefficient is read from ``coeffs`` by its exponent tuple, in
``variables`` order; ``require_known`` and ``nonzero_on`` refuse a window
that the series does not know.  Any operation that cannot guarantee
exactness of a requested coefficient raises instead of truncating silently.
"""
from __future__ import annotations

from operator import add

from .errors import SummabilityError, WindowUnderflowError
from .scalars import Vec

INF = None  # open window end


def _known_contains(known, lo, hi):
    klo, khi = known
    if klo is not None and (lo is None or lo < klo):
        return False
    if khi is not None and (hi is None or hi > khi):
        return False
    return True


class WindowedSeries:
    """Coefficients keyed by exponent tuples in ``variables`` order, and the
    knowledge ``window`` of each inexact variable; with no window the series
    is exact, a Laurent polynomial.

    Immutable: no code changes a series' coefficients or windows once the
    function that built it has returned it.  Derived series may therefore
    share the ``coeffs`` and ``window`` dicts of the series they come from."""

    __slots__ = ("variables", "coeffs", "window")

    def __init__(self, variables, coeffs, window=None):
        self.variables = tuple(variables)
        self.coeffs = {k: v for k, v in coeffs.items()
                       if (v.entries if type(v) is Vec else v)}
        self.window = dict(window) if window else {}

    @classmethod
    def _of(cls, variables, coeffs, window):
        """A series of clean parts: no zero stored."""
        out = cls.__new__(cls)
        out.variables, out.coeffs, out.window = variables, coeffs, window
        return out

    # -- bookkeeping --------------------------------------------------------
    def idx(self, var):
        return self.variables.index(var)

    def known(self, var):
        """Interval on which coefficients in this variable are complete."""
        return self.window.get(var, (INF, INF))

    def support(self, var):
        i = self.idx(var)
        exps = [k[i] for k in self.coeffs]
        return (min(exps), max(exps)) if exps else (0, 0)

    def exact(self, var):
        """Whether the series is complete everywhere in the direction ``var``."""
        return var not in self.window

    def is_exact(self):
        return not self.window

    def copy_meta(self, coeffs):
        return WindowedSeries(self.variables, coeffs, self.window)

    def __repr__(self):
        n = len(self.coeffs)
        return f"WindowedSeries({','.join(self.variables)}; {n} monomials)"

    # -- linear structure ---------------------------------------------------
    def align(self, variables):
        """Re-express over a variable superset (dropped vars must be unused).
        Series are immutable, so over its own variables a series is itself."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        positions = []
        for v in self.variables:
            if v not in variables:
                if any(k[self.idx(v)] for k in self.coeffs):
                    raise ValueError(f"cannot drop live variable {v!r}")
                positions.append(None)
            else:
                positions.append(variables.index(v))
        coeffs = {}
        for key, c in self.coeffs.items():
            new = [0] * len(variables)
            for p, e in zip(positions, key):
                if p is not None:
                    new[p] = e
        # keys may collide only if a dropped variable was live, excluded above
            coeffs[tuple(new)] = c
        return WindowedSeries(variables, coeffs, {
            v: w for v, w in self.window.items() if v in variables})

    def rename(self, mapping):
        """Bijectively rename variables; series content is untouched.

        The renamed series shares this one's coefficient dict: the keys are
        exponent tuples in variable order, which a renaming keeps."""
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(new_vars)) != len(new_vars):
            raise ValueError("rename must stay bijective")
        return WindowedSeries._of(new_vars, self.coeffs, {
            mapping.get(v, v): w for v, w in self.window.items()})

    def flip_sign(self, var):
        """Substitute var -> -var."""
        i = self.idx(var)
        coeffs = {k: (-c if k[i] % 2 else c) for k, c in self.coeffs.items()}
        out = self.copy_meta(coeffs)
        if var in self.window:
            lo, hi = self.window[var]
            out.window[var] = (-hi if hi is not None else INF,
                               -lo if lo is not None else INF)
        return out

    def __neg__(self):
        return self.copy_meta({k: -v for k, v in self.coeffs.items()})

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, subtract):
        """self + other, or self - other in one pass: only the coefficients
        of ``other`` at keys new to ``self`` are negated, and a zero can arise
        only where two coefficients combine.  No series stores a coefficient
        outside its known region, so when both operands know the same region
        nothing is dropped and the ``_drop_unknown`` pass is skipped."""
        if self.variables != other.variables:
            allv = tuple(sorted(set(self.variables) | set(other.variables)))
            return self.align(allv)._merge(other.align(allv), subtract)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            prev = coeffs.get(k)
            if prev is None:
                coeffs[k] = -c if subtract else c
            elif new := (prev - c if subtract else prev + c):
                coeffs[k] = new
            else:
                del coeffs[k]
        window, same_known = {}, True
        for v in self.variables:
            if self.exact(v) and other.exact(v):
                continue
            ka, kb = self.known(v), other.known(v)
            same_known = same_known and ka == kb
            window[v] = _meet(ka, kb)
        out = WindowedSeries._of(self.variables, coeffs, window)
        return out if same_known else out._drop_unknown()

    def cropped(self, region):
        """This series with each window narrowed to its meet with ``region``
        {var: (lo, hi)}, and the keys outside dropped; never raises."""
        window = dict(self.window)
        for v, bounds in region.items():
            window[v] = _meet(self.known(v), bounds)
        return WindowedSeries._of(self.variables, self.coeffs, window)._drop_unknown()

    def _drop_unknown(self):
        """Remove stored coefficients outside the knowledge region."""
        known = [self.known(v) for v in self.variables]
        keep = {}
        for key, c in self.coeffs.items():
            for (lo, hi), e in zip(known, key):
                if (lo is not None and e < lo) or (hi is not None and e > hi):
                    break
            else:
                keep[key] = c
        return WindowedSeries._of(self.variables, keep, self.window)

    # -- coefficient access ---------------------------------------------------
    def require_known(self, window):
        """Raise unless the series knows the whole window."""
        for v, (lo, hi) in window.items():
            if not _known_contains(self.known(v), lo, hi):
                raise WindowUnderflowError(
                    f"window {window} exceeds the known region for {v!r}: "
                    f"known {self.known(v)}")

    def nonzero_on(self, window):
        """Iterator over the (key, coefficient) pairs inside ``window``, where
        a variable that the window does not name has exponent 0.  Raises at
        once unless the series knows the whole window."""
        self.require_known(window)
        return _inside(self.coeffs, [window.get(v, (0, 0)) for v in self.variables])

    def monomial(self, key):
        """The monomial of an exponent tuple as {var: exp}, zero exponents left out."""
        return {v: e for v, e in zip(self.variables, key) if e}


def _meet(ka, kb):
    """The intersection of two knowledge intervals, None an open end."""
    lo = None if ka[0] is None and kb[0] is None else max(
        x for x in (ka[0], kb[0]) if x is not None)
    hi = None if ka[1] is None and kb[1] is None else min(
        x for x in (ka[1], kb[1]) if x is not None)
    return lo, hi


def _inside(coeffs, bounds):
    """The (key, coefficient) pairs of ``coeffs`` whose exponents lie in
    ``bounds``, one (lo, hi) per position, lazily."""
    for key, c in coeffs.items():
        for (lo, hi), e in zip(bounds, key):
            if (lo is not None and e < lo) or (hi is not None and e > hi):
                break
        else:
            yield key, c


def judged_coeffs(series, window_box=None):
    """Iterator over the (key, coefficient) pairs that ``zero_verdict``
    judges: all of an exact series, those on the window of any other."""
    if series.is_exact():
        return iter(series.coeffs.items())
    return series.nonzero_on(window_box)


def zero_verdict(series, window_box=None):
    """(is_zero, witness) — exact when possible, otherwise on the window
    (an exact series needs none); the witness is the least judged monomial
    with its coefficient."""
    key = min((key for key, _ in judged_coeffs(series, window_box)), default=None)
    if key is None:
        return True, None
    return False, (series.monomial(key), series.coeffs[key])


# ---------------------------------------------------------------------------
# multiplication

def multiply(a: WindowedSeries, b: WindowedSeries) -> WindowedSeries:
    """Exact product, known where every contributing coefficient is.

    In each variable at least one factor must be exact, a Laurent polynomial
    there, so that every coefficient is a finite convolution; the product is
    exact where both are, and otherwise known on the inexact factor's window
    narrowed by the exact factor's support.  A product with no exact factor
    in some variable is refused.
    """
    if set(a.variables) != set(b.variables):
        allv = tuple(sorted(set(a.variables) | set(b.variables)))
        return multiply(a.align(allv), b.align(allv))
    b = b.align(a.variables)
    window = {}
    for v in a.variables:
        if a.exact(v):
            if b.exact(v):
                continue
            finite, (lo, hi) = a, b.known(v)
        elif b.exact(v):
            finite, (lo, hi) = b, a.known(v)
        else:
            raise WindowUnderflowError(
                f"product knows no complete window in {v!r}: both factors inexact")
        slo, shi = finite.support(v)
        window[v] = (lo + shi if lo is not None else INF,
                     hi + slo if hi is not None else INF)
    coeffs = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            key = tuple(map(add, k1, k2))
            coeffs[key] = coeffs.get(key, 0) + c1 * c2
    return WindowedSeries(a.variables, coeffs, window)._drop_unknown()


# ---------------------------------------------------------------------------
# binomial powers

def add_power(coeffs, rows, base, c, n, head, tail, kmax, kmin=0):
    """Add c * (s_h x_h + s_t x_t)^n * x^base to ``coeffs``, tail powers
    kmin..kmax.

    The expansion is in nonnegative powers of the tail, for any integer n:
    (s_h x_h + s_t x_t)^n = sum_k binom(n, k) (s_h x_h)^(n-k) (s_t x_t)^k,
    a finite sum (k <= n) when n >= 0.  ``coeffs`` maps exponent tuples to
    coefficients; ``base`` is an exponent tuple; ``head`` and ``tail`` are
    (sign +-1, position in the exponent tuple).  With kmax = 0 only the head
    term is added and the tail is never read; with kmin > kmax nothing is.

    The signed row s_h^(n-k) s_t^k binom(n, k) is read from ``rows``, a
    memo {(n, s_h, s_t): row} that the caller makes for one operation and
    shares among its calls.  A row starts at s_h^n and is lengthened on
    demand by binom(n, k+1) = binom(n, k) * (n-k) // (k+1), exact for every
    integer n because binom(n, k) * (n-k) = binom(n, k+1) * (k+1); the sign
    changes by the factor s_h s_t at each step.

    A stacked coefficient (a ``Vec``) is summed label by label: at each key
    ``coeffs`` holds a plain dict {label: rational}, written in place, and
    the caller makes each key's ``Vec`` once, with ``_made``, after its
    last write.  So ``coeffs`` holds scalars or such dicts, never both.
    """
    (hs, ih), (ts, it) = head, tail
    if n >= 0 and kmax > n:
        kmax = n
    if kmin > kmax:
        return
    row = rows.get((n, hs, ts))
    if row is None:
        row = rows[n, hs, ts] = [hs ** (n % 2)]
    for k in range(len(row) - 1, kmax):
        row.append(hs * ts * row[k] * (n - k) // (k + 1))
    key = list(base)
    key[ih] += n - kmin
    key[it] += kmin
    if type(c) is not Vec:
        for bc in row[kmin:kmax + 1]:
            t = tuple(key)
            coeffs[t] = coeffs.get(t, 0) + c * bc
            key[ih] -= 1
            key[it] += 1
        return
    entries = c.entries.items()
    for bc in row[kmin:kmax + 1]:
        t = tuple(key)
        acc = coeffs.get(t)
        if acc is None:
            acc = coeffs[t] = {}
        for label, x in entries:
            acc[label] = acc.get(label, 0) + bc * x
        key[ih] -= 1
        key[it] += 1


def _made(coeffs):
    """``coeffs`` after its last ``add_power``, with each label dict made a
    ``Vec`` (integral entries ints, zero entries dropped); one of scalars is
    returned as it is."""
    if type(next(iter(coeffs.values()), None)) is not dict:
        return coeffs
    return {key: Vec(acc) for key, acc in coeffs.items()}


def binomial_power(variables, head_sv, tail_sv, n):
    """(s_h v_h + s_t v_t)^n for n >= 0 as an exact polynomial series."""
    if n < 0:
        raise ValueError("binomial_power is for nonnegative exponents")
    variables = tuple(variables)
    hs, hv = head_sv
    ts, tv = tail_sv
    coeffs = {}
    add_power(coeffs, {}, (0,) * len(variables), 1, n,
              (hs, variables.index(hv)), (ts, variables.index(tv)), n)
    return WindowedSeries(variables, coeffs)


# ---------------------------------------------------------------------------
# Taylor substitution

def taylor_substitute(s: WindowedSeries, var, head_sv, tail_sv, out_window=None):
    """Substitute var -> (head + tail), expanded in nonnegative tail powers.

    head/tail are signed variables; the head may be ``var`` itself (the plain
    shift x -> x + y) or a fresh variable; the tail variable must be distinct
    from both head and ``var``.  If the series carries negative powers of
    ``var`` the expansion is infinite in the tail direction and ``out_window``
    must bound the tail variable's exponent; the output window records exactly
    where the result is complete.
    """
    hs, hv = head_sv
    ts, tv = tail_sv
    if tv == var or tv == hv:
        raise ValueError("tail variable must differ from the head and the target")
    klo, khi = s.known(var)
    if khi is not None:
        raise WindowUnderflowError(
            f"substitution target {var!r} must be known-complete above; known ({klo},{khi})")
    negative = any(k[s.idx(var)] < 0 for k in s.coeffs)
    if negative and (out_window is None or tv not in out_window
                     or out_window[tv][1] is None):
        raise WindowUnderflowError(
            f"negative powers of {var!r}: need a finite upper window for {tv!r}")
    hv_pre = hv in s.variables and hv != var and any(k[s.idx(hv)] for k in s.coeffs)
    if hv_pre and not s.exact(hv):
        raise WindowUnderflowError(
            f"substitution head {hv!r} already live and inexact; not supported")

    new_vars = list(s.variables)
    new_vars.remove(var)
    for v in (hv, tv):
        if v not in new_vars:
            new_vars.append(v)
    new_vars = tuple(new_vars)
    iv = s.idx(var)
    ih = new_vars.index(hv)
    it = new_vars.index(tv)

    coeffs, rows = {}, {}
    for key, c in s.coeffs.items():
        n = key[iv]
        base = [0] * len(new_vars)
        for v, e in zip(s.variables, key):
            if v != var:
                base[new_vars.index(v)] += e
        kmax = n if n >= 0 else out_window[tv][1] - base[it]
        add_power(coeffs, rows, base, c, n, (hs, ih), (ts, it), kmax)
    coeffs = _made(coeffs)

    window = {v: w for v, w in s.window.items() if v not in (var, hv, tv)}
    if not negative and all(s.exact(v) for v in (var, hv, tv)):
        # a finite expansion into exact directions is exact in both
        return WindowedSeries(new_vars, coeffs, window)
    # truncated / inexact expansion: the head is complete above klo (shifted by
    # any pre-existing exact head exponents), the tail below the window cap
    head_lo = klo
    if hv_pre and klo is not None:
        head_lo = klo + s.support(hv)[1]
    window[hv] = (head_lo, INF)
    tail_known_hi = out_window[tv][1] if negative else INF
    if tv in s.variables:
        tlo, thi = s.known(tv)
        tail_known_hi = thi if tail_known_hi is None else (
            tail_known_hi if thi is None else min(tail_known_hi, thi))
        window[tv] = (tlo, tail_known_hi)
    else:
        window[tv] = (0, tail_known_hi)
    return WindowedSeries(new_vars, coeffs, window)._drop_unknown()


# ---------------------------------------------------------------------------
# deltas in the concrete layer

def apply_delta(terms, out_window):
    """The sum of sign * denom^-1 delta(num/denom) * s over ``terms``, a list
    of (sign +-1, num_head, num_tail, denom, s), exact on out_window.

    ``num_head``/``num_tail`` are signed variables, and a series must not
    involve its denominator.  The window must be finite for each denominator
    (it pins the delta index) and bounded above for each tail variable.
    Raises WindowUnderflowError naming the region a series would have to know
    if its windows are too small.  Every term writes into one coefficient
    dict, over the sorted variables of all terms.

    Only coefficients inside ``out_window`` are written.  For an input
    coefficient at base exponents (head part base_h, tail part base_t) and a
    delta index n, with head exponent head_exp = base_h + n, the tail power k
    runs from max(0, tail_lo - base_t, head_exp - head_hi) to
    min(tail_hi - base_t, head_exp - head_lo), an open window end clipping
    nothing; a coefficient whose other exponents lie outside the window is
    skipped.
    """
    names = set()
    for _, (_, hv), (_, tv), denom, s in terms:
        names.update(s.variables, (hv, tv, denom))
    variables = tuple(sorted(names))
    window = {v: out_window.get(v, (0, 0)) for v in variables}
    coeffs, rows = {}, {}
    for sign, (hs, hv), (ts, tv), denom, s in terms:
        if denom in s.variables and any(k[s.idx(denom)] for k in s.coeffs):
            raise SummabilityError(f"series involves the delta denominator {denom!r}")
        dlo, dhi = out_window[denom]
        if dlo is None or dhi is None:
            raise SummabilityError(f"delta index needs a finite window for {denom!r}")
        nmax = -dlo - 1  # the delta index n = -e - 1 runs down to -dhi - 1
        # completeness requirement in the numerator-head direction
        klo, khi = s.known(hv) if hv in s.variables else (INF, INF)
        if khi is not None:
            raise WindowUnderflowError(f"series must be known-complete above in {hv!r}")
        if klo is not None:
            hlo = out_window.get(hv, (0, 0))[0]
            if hlo is None or klo > hlo - nmax:
                raise WindowUnderflowError(
                    f"series known above {klo} in {hv!r}, but the delta window needs "
                    f"{'unbounded' if hlo is None else hlo - nmax}")
        whi = out_window.get(tv, (0, 0))[1]
        if whi is None:
            raise SummabilityError(f"numerator tail {tv!r} needs a bounded window")
        tkhi = s.known(tv)[1] if tv in s.variables else INF
        if tkhi is not None and tkhi < whi:
            raise WindowUnderflowError(
                f"series known below {tkhi} in {tv!r}, but the window needs {whi}")
        for v in s.variables:
            if v in (hv, tv, denom):
                continue
            wlo, whi2 = out_window.get(v, (0, 0))
            if not _known_contains(s.known(v), wlo, whi2):
                raise WindowUnderflowError(
                    f"series knowledge in {v!r} does not cover the requested window")
        base_idx = [variables.index(v) for v in s.variables]
        head = (hs, variables.index(hv))
        idn = variables.index(denom)
        tail = (ts, variables.index(tv))
        (hlo, hhi), (tlo, thi) = window[hv], window[tv]
        fixed = [(i, window[v]) for i, v in enumerate(variables)
                 if i not in (head[1], tail[1], idn)]
        for key, c in s.coeffs.items():
            base = [0] * len(variables)
            for p, e in zip(base_idx, key):
                base[p] += e
            if fixed and any((lo is not None and base[i] < lo) or (
                    hi is not None and base[i] > hi) for i, (lo, hi) in fixed):
                continue
            base_t = base[tail[1]]
            kmin_t = 0 if tlo is None else max(0, tlo - base_t)
            kmax_t = thi - base_t
            if kmin_t > kmax_t:
                continue
            if sign < 0:
                c = -c
            base_h = base[head[1]]
            # beyond these n every tail power puts the head off the window
            top = nmax if hhi is None else min(nmax, hhi + kmax_t - base_h)
            bottom = -dhi - 1 if hlo is None else max(-dhi - 1, hlo + kmin_t - base_h)
            for n in range(top, bottom - 1, -1):
                head_exp = base_h + n
                kmin = kmin_t if hhi is None else max(kmin_t, head_exp - hhi)
                kmax = kmax_t if hlo is None else min(kmax_t, head_exp - hlo)
                if kmin > kmax or (n >= 0 and kmin > n):
                    continue  # an empty tail range: add_power would write nothing
                base[idn] = -n - 1  # s does not involve the denominator
                add_power(coeffs, rows, base, c, n, head, tail, kmax, kmin)
    return WindowedSeries(variables, _made(coeffs), window)


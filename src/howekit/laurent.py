"""Sparse integer Laurent polynomials in a fixed number of variables.

Terms are a dict mapping exponent tuples (Z^nvars) to nonzero integer
coefficients.  Instances are treated as immutable: every operation builds a
new polynomial.  A product checks its pairs of terms against the
process-wide term cap before it forms any.
"""

from operator import add

from . import limits
from ._value import Value, check_int, check_weight
from .errors import HowekitError


class LaurentPolynomial(Value):
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = check_int(nvars)
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        if terms:
            for exp, coef in terms.items() if isinstance(terms, dict) else terms:
                exp = check_weight(exp)
                if len(exp) != nvars:
                    raise ValueError("exponent %r has wrong arity" % (exp,))
                coef = check_int(coef)
                if coef:
                    clean[exp] = clean.get(exp, 0) + coef
                    if clean[exp] == 0:
                        del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars):
        return LaurentPolynomial(nvars)

    @staticmethod
    def one(nvars):
        return LaurentPolynomial(nvars, {(0,) * nvars: 1})

    @staticmethod
    def monomial(exp, coef=1):
        exp = check_weight(exp)
        return LaurentPolynomial(len(exp), {exp: coef})

    # -- basics ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(%d, 0)" % self.nvars
        bits = []
        for exp in sorted(self.terms):
            bits.append("%+d*x^%r" % (self.terms[exp], list(exp)))
        return "LaurentPolynomial(%d, %s)" % (self.nvars, " ".join(bits))

    def __len__(self):
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_arity(self, other):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return LaurentPolynomial._trusted(self.nvars, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, k):
        k = check_int(k)
        if k == 0:
            return LaurentPolynomial.zero(self.nvars)
        return LaurentPolynomial._trusted(
            self.nvars, {e: k * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_arity(other)
        a, b = self.terms, other.terms
        limits.check("term_cap", len(a) * len(b),
                     "polynomial product forms %d term pairs")
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return LaurentPolynomial._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = check_int(k)
        if k < 0:
            raise ValueError("negative powers not supported")
        out = LaurentPolynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift(self, exp):
        """Multiply by the monomial x^exp."""
        exp = check_weight(exp)
        return LaurentPolynomial(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def lex_max(self):
        """The lexicographically greatest exponent (error on zero)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def evaluate_ones(self):
        """Value at x_i = 1 for all i (sum of the coefficients)."""
        return sum(self.terms.values())

    def exact_div(self, divisor):
        """Exact quotient self / divisor; raises when not exact.

        Lex-leading terms are peeled off, so quotient exponents come out
        strictly decreasing.  Lex order is additive, so an exact quotient
        has lexmin(self) - lexmin(divisor) as its least exponent; a
        quotient exponent below it proves the division inexact.  Newton
        polytopes add under multiplication, so every exponent of an exact
        quotient also lies in the coordinate box from
        min_i(self) - min_i(divisor) to max_i(self) - max_i(divisor); an
        exponent outside it proves the division inexact, and as the box
        is finite the loop ends.
        """
        self._check_arity(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.nvars)
        pivot = divisor.lex_max()
        pivot_coef = divisor.terms[pivot]
        floor = tuple(a - b
                      for a, b in zip(min(self.terms), min(divisor.terms)))
        # coordinatewise bounds of the box, one (low, high) pair a variable
        box = [(min(a) - min(b), max(a) - max(b))
               for a, b in zip(zip(*self.terms), zip(*divisor.terms))]
        rem = dict(self.terms)
        quot = {}
        while rem:
            top = max(rem)
            coef = rem[top]
            if coef % pivot_coef:
                raise HowekitError("division not exact (coefficient %d / %d)"
                                   % (coef, pivot_coef))
            qexp = tuple(a - b for a, b in zip(top, pivot))
            if qexp < floor:
                raise HowekitError("division not exact (quotient exponent %r "
                                   "below %r)" % (qexp, floor))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(qexp, box)):
                raise HowekitError("division not exact (quotient exponent %r "
                                   "outside the box %r)" % (qexp, box))
            qcoef = coef // pivot_coef
            quot[qexp] = quot.get(qexp, 0) + qcoef
            for e, c in divisor.terms.items():
                key = tuple(map(add, qexp, e))
                nc = rem.get(key, 0) - qcoef * c
                if nc:
                    rem[key] = nc
                else:
                    rem.pop(key, None)
        return LaurentPolynomial._trusted(self.nvars, quot)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self):
        return [{"exp": list(e), "coef": self.terms[e]} for e in sorted(self.terms)]

    @staticmethod
    def from_json_obj(obj, nvars=None):
        pairs = [(item["exp"], item["coef"]) for item in obj]
        if nvars is None:
            if not pairs:
                raise ValueError("cannot infer arity of an empty polynomial")
            nvars = len(pairs[0][0])
        return LaurentPolynomial(nvars, pairs)

"""Field checkers of the config schema.

check(value, path, bad, owner) appends one "<dotted.path>: <reason>" line
to ``bad`` per violation, owner naming the experiment or kind whose schema
holds the field, and returns the value, or a block with its defaults
filled in.  A block maps each field to a checker, or to (checker, default)
when the field is optional; null counts as missing, and a default of None
leaves the field out.  A table lives beside the code that owns it, which
checks its own arguments through it with check(), as the config does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from numbers import Integral, Real

REQUIRED = object()


def check(checker, value, path, owner, error):
    """Run checker on value as the field at path of owner, and raise error
    listing every violation if there is one."""
    bad = []
    checker(value, path, bad, owner)
    if bad:
        raise error("; ".join(bad))


def satisfies(ok, want):
    """Checker of one value: ok(value) says whether it is `want`; a value that ok
    cannot read (TypeError, ValueError, ArithmeticError) is not."""
    def check(v, path, bad, owner):
        try:
            good = ok(v)
        except (TypeError, ValueError, ArithmeticError):
            good = False
        if not good:
            bad.append(f"{path}: must be {want} for {owner}, got {v!r}")
        return v
    return check


def _ranged(want, read, lo=None, hi=None, closed=False):
    """Checker of values that read(value) turns into a number between lo
    and hi, bounds included when closed; read returns None to reject."""
    def ok(v):
        x = read(v)
        return x is not None and (lo is None or lo < x or closed and lo == x) and (
            hi is None or x < hi or closed and x == hi)
    if hi is None:
        span = "" if lo is None else f" {'>=' if closed else '>'} {lo}"
    else:
        span = f" in {'[' if closed else '('}{lo}, {hi}{']' if closed else ')'}"
    return satisfies(ok, want + span)


def _real(v):
    if isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v):
        return v


def _exact(v):
    if isinstance(v, (str, Fraction)) or isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)


# checker(lo, hi, closed) of a value in a range; a rational is exact, given
# as a "num/den" string, an integer or a Fraction
integer = partial(_ranged, "an integer", lambda v: _real(v) if isinstance(v, Integral) else None,
                  closed=True)
number = partial(_ranged, "a finite number", _real)
rational = partial(_ranged, 'a rational "num/den"', _exact)


def enum(choices):
    return satisfies(lambda v: isinstance(v, str) and v in choices, f"one of {tuple(choices)}")


obj = satisfies(lambda v: isinstance(v, dict), "an object")


def listof(item, empty=False):
    """A list or tuple of values that each pass `item`, non-empty unless `empty`."""
    def check(v, path, bad, owner):
        if not isinstance(v, (list, tuple)) or not (empty or v):
            bad.append(f"{path}: must be a {'' if empty else 'non-empty '}list "
                       f"for {owner}, got {v!r}")
            return v
        return [item(x, f"{path}.{i}", bad, owner) for i, x in enumerate(v)]
    return check


def block(fields, rule=None):
    """Checker of an object with the given fields; unknown keys are
    violations.  rule(filled block), run only when every field passed,
    returns one more violation or None."""
    def check(v, path, bad, owner):
        if not isinstance(v, dict):
            return obj(v, path, bad, owner)
        n, out = len(bad), {}
        for key, f in fields.items():
            at = f"{path}.{key}" if path else key
            f, default = f if isinstance(f, tuple) else (f, REQUIRED)
            if v.get(key) is not None:
                out[key] = f(v[key], at, bad, owner)
            elif default is REQUIRED:
                bad.append(f"{at}: missing parameter '{key}' ({owner} needs {at})")
            elif default is not None:
                out[key] = default
        bad.extend(f"{path}.{key}: unknown field for {owner}" if path
                   else f"{key}: unknown field for {owner}" for key in v if key not in fields)
        if rule and len(bad) == n and (why := rule(out)):
            bad.append(f"{path}: {why}" if path else why)
        return out
    return check


def rules(*pairs):
    """Rule of a block: the reasons of the (holds, reason) pairs that fail."""
    return lambda b: "; ".join(why for holds, why in pairs if not holds(b)) or None


def kinds(table, tag="kind", default=None):
    """Checker of an object whose `tag`, or else the default, names an entry
    of table: {name: fields or (fields, rule)}.  The entry's fields are
    checked with that name as their owner."""
    def check(v, path, bad, owner):
        if not isinstance(v, dict):
            return obj(v, path, bad, owner)
        name = default if v.get(tag) is None else v[tag]
        if not isinstance(name, str) or name not in table:
            return enum(table)(name, f"{path}.{tag}", bad, owner)
        fields, rule = table[name] if isinstance(table[name], tuple) else (table[name], None)
        rest = {k: x for k, x in v.items() if k != tag}
        return {tag: name, **block(fields, rule)(rest, path, bad, name)}
    return check

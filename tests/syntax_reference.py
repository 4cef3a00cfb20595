"""Recursive reference versions of ``syntax.substitute`` and
``syntax.alpha_equal``, one Python call per nesting level, kept as the
oracle for the explicit-stack walks in ``latlog.syntax``."""
from latlog import App, Atom, Const, Func, PropVar, Quant, Var
from latlog.errors import LatlogError
from latlog.syntax import free_object_vars, fresh_name, prop_variables, term_vars


def reference_substitute(f, mapping):
    return _subst(f, dict(mapping))


def _value_free_names(v):
    if isinstance(v, (Var, Func)):
        return term_vars(v)
    return free_object_vars(v)


def _subst_term(t, m):
    if isinstance(t, Var):
        v = m.get(t.name)
        if v is None:
            return t
        if not isinstance(v, (Var, Func)):
            raise LatlogError(
                f"object variable {t.name!r} must be mapped to a term", variable=t.name
            )
        return v
    return Func(t.name, tuple(_subst_term(a, m) for a in t.args))


def _subst(f, m):
    if not m:
        return f
    if isinstance(f, PropVar):
        v = m.get(f.name)
        if v is None:
            return f
        if isinstance(v, (Var, Func)):
            raise LatlogError(
                f"propositional variable {f.name!r} must be mapped to a formula",
                variable=f.name,
            )
        return v
    if isinstance(f, Const):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_subst_term(t, m) for t in f.args))
    if isinstance(f, App):
        return App(f.conn, tuple(_subst(a, m) for a in f.args))
    if isinstance(f, Quant):
        inner = {k: v for k, v in m.items() if k != f.var}
        if not inner:
            return f
        relevant = {k for k in inner
                    if k in free_object_vars(f.body) or k in prop_variables(f.body)}
        if not relevant:
            return f
        capture = any(f.var in _value_free_names(inner[k]) for k in relevant)
        var, body = f.var, f.body
        if capture:
            taken = (free_object_vars(body) | prop_variables(body) | set(inner)
                     | {f.var})
            for k in relevant:
                taken |= _value_free_names(inner[k])
            var = fresh_name(f.var, taken)
            body = _subst(body, {f.var: Var(var)})
        return Quant(f.kind, var, _subst(body, inner))
    raise LatlogError(f"cannot substitute in {f!r}")


def reference_alpha_equal(f, g):
    def go(a, b, fw, bw):
        if type(a) is not type(b):
            return False
        if isinstance(a, (PropVar, Const)):
            return a.name == b.name
        if isinstance(a, Atom):
            return a.pred == b.pred and len(a.args) == len(b.args) and all(
                term_go(s, t, fw, bw) for s, t in zip(a.args, b.args)
            )
        if isinstance(a, App):
            return a.conn == b.conn and len(a.args) == len(b.args) and all(
                go(s, t, fw, bw) for s, t in zip(a.args, b.args)
            )
        if isinstance(a, Quant):
            if a.kind != b.kind:
                return False
            return go(a.body, b.body, {**fw, a.var: b.var}, {**bw, b.var: a.var})
        return False

    def term_go(s, t, fw, bw):
        if isinstance(s, Var) and isinstance(t, Var):
            return fw.get(s.name, s.name) == t.name and bw.get(t.name, t.name) == s.name
        if isinstance(s, Func) and isinstance(t, Func):
            return s.name == t.name and len(s.args) == len(t.args) and all(
                term_go(x, y, fw, bw) for x, y in zip(s.args, t.args)
            )
        return False

    return go(f, g, {}, {})

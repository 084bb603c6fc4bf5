"""Frozen value records, as `dataclass(frozen=True)` makes them, for a
fraction of the import cost.  One `exec` per class generates the hot
`__init__`, `__eq__` (field tuples, NotImplemented across classes) and
`__hash__`; `__repr__`, `__reduce__` (copies rebuild through `__init__`)
and the refusing `__setattr__`/`__delattr__` are shared.  Fields are the
class's own annotations, a class attribute is a default, `__post_init__`
runs after the fields are set, and a field named `_...` is a cache slot,
set to its default and left out of parameters, `==`, hash, repr, copies.
"""


def _repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__annotations__ if n[0] != "_")
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return self.__class__, tuple(getattr(self, n) for n in self.__annotations__ if n[0] != "_")


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


_SHARED = dict(__repr__=_repr, __reduce__=_reduce, __setattr__=_frozen, __delattr__=_frozen)


def record(cls=None, *, slots=False):
    if cls is None:
        return lambda c: record(c, slots=slots)
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    fields = [n for n in names if not n.startswith("_")]
    if slots:
        body = {k: v for k, v in own.items() if k not in (*names, "__dict__", "__weakref__")}
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": names})
        cls.__qualname__ = qualname
    env = {"_set": object.__setattr__, **{f"_d_{n}": own[n] for n in names if n in own}}
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in env else f", {n}" for n in fields)
    sets = "".join(f"\n _set(self, {n!r}, {n if n in fields else '_d_' + n})" for n in names)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    mine, theirs = ("".join(f"{s}.{n}," for n in fields) for s in ("self", "other"))
    exec(f"def __init__(self{params}):{sets}{post}\n"
         f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
         f"  return ({mine}) == ({theirs})\n return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n", env)
    env.update(_SHARED)
    for name in ("__init__", "__eq__", "__hash__", *_SHARED):
        if name not in own:
            setattr(cls, name, env[name])
    return cls

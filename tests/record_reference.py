"""``@dataclass(frozen=True)`` twins of the package's records, kept for differential tests.

Every record subclasses ``power.Record``, which declares it a dataclass
with no generated functions and gives it one shared ``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and
``__delattr__``. ``twin(cls)`` declares, from ``dataclasses.fields(cls)``,
the frozen dataclass the record used to be: the same name, fields, types,
defaults, default factories and compare flags, identity equality where the
record has it (the column records), and the methods dataclass compiles. A
twin has none of the record's checks, so it is given the values the record
stored. Each twin is bound in this module under its record's name, where
pickle looks it up.
"""

from dataclasses import field, fields, make_dataclass

from yawbench import baseline, env, metrics, power, ppo, wind

RECORDS = (
    power.TurbineParams, wind.Standardizer, wind.GeneratorSpec, env.EnvConfig, baseline.CycaConfig, ppo.PpoConfig,
    metrics.MetricsReport, metrics.Comparison, wind.Columns, wind.WindSeries, baseline.NacelleLog, env.CycleTrace,
)


def twin(cls) -> type:
    """The ``@dataclass(frozen=True)`` declaration of ``cls``'s fields, named like ``cls``."""
    specs = [
        (f.name, f.type, field(default=f.default, default_factory=f.default_factory, repr=f.repr, hash=f.hash,
                               compare=f.compare))
        for f in fields(cls)
    ]
    ref = make_dataclass(cls.__name__, specs, frozen=True, eq=cls.__eq__ is not object.__eq__)
    ref.__module__ = __name__
    return ref


TWINS = {cls: twin(cls) for cls in RECORDS}
globals().update((ref.__name__, ref) for ref in TWINS.values())

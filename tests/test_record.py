"""Parity of ``clans.Record`` with a frozen dataclass.

Each class on the record base is compared with a frozen ``@dataclass`` of
the same name and fields, built here: equality, hash and repr, positional
and keyword construction, the calls both refuse, and refused assignment.
The ``__post_init__`` checks keep their messages on either way of calling.
"""

import dataclasses

import pytest

from diii_clans import ClanError, PartialFPFInvolution, SchubertSubset, enumerate_diii, sects
from diii_clans.clans import Record
from diii_clans.enumeration import ClanSet
from diii_clans.sects import Sect
from diii_clans.verify import CheckResult


def samples():
    """Two differing field tuples for each class on the record base."""
    two, three = enumerate_diii(2), enumerate_diii(3)
    first, second = sects(3)[:2]
    return {
        ClanSet: ((two.n, two.keys, two.texts), (three.n, three.keys, three.texts)),
        Sect: ((first.base_key, first.clans), (second.base_key, second.clans)),
        SchubertSubset: ((2, frozenset({1, 2})), (2, frozenset({3, 4}))),
        PartialFPFInvolution: (((2, 1, 0),), ((0, 3, 2),)),
        CheckResult: (("counting", True, "12 sizes"), ("sects", False, "size 3 differs")),
    }


CLASSES = list(samples())


def reference(cls):
    """A frozen dataclass with the name and fields of ``cls``."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


def test_every_record_class_is_compared():
    assert set(Record.__subclasses__()) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_equality_hash_and_repr_match_a_dataclass(cls):
    ref = reference(cls)
    (one, other) = samples()[cls]
    a, b, c = cls(*one), cls(*one), cls(*other)
    ra, rb, rc = ref(*one), ref(*one), ref(*other)
    assert (a == b, a == c, a != c) == (ra == rb, ra == rc, ra != rc) == (True, False, True)
    assert hash(a) == hash(ra) and hash(c) == hash(rc)
    assert repr(a) == repr(ra) and repr(c) == repr(rc)
    assert len({a, b, c}) == 2
    # a value of another class with the same fields is not equal
    assert a != ra and ra != a


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_keyword_construction_matches_a_dataclass(cls):
    ref = reference(cls)
    values = samples()[cls][0]
    names = cls._fields
    assert names == tuple(f.name for f in dataclasses.fields(ref))
    by_name = dict(zip(names, values))
    assert cls(**by_name) == cls(*values)
    assert cls(*values[:1], **dict(list(by_name.items())[1:])) == cls(*values)
    assert repr(cls(**by_name)) == repr(ref(**by_name))
    # what a dataclass refuses, the record refuses
    wrong = [
        ((), {}),
        (values[:-1], {}),
        ((*values, values[-1]), {}),
        (values, {"extra": 1}),
        (values, {names[0]: values[0]}),
        (values[1:], {}) if len(values) > 1 else ((), {"other": values[0]}),
    ]
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_assignment_is_refused_as_by_a_dataclass(cls):
    values = samples()[cls][0]
    record, ref = cls(*values), reference(cls)(*values)
    for name in (*cls._fields, "other"):
        for value in (record, ref):
            with pytest.raises(AttributeError) as raised:
                setattr(value, name, None)
            assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(ref, name)
    assert record == cls(*values)


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (SchubertSubset, (2.0, frozenset({1, 3})), "subset size must be an int, got 2.0"),
        (SchubertSubset, (2, {1, 2}), "subset members must be a frozenset of ints, got {1, 2}"),
        (
            SchubertSubset,
            (2, frozenset({True, 2})),
            "subset members must be a frozenset of ints, got frozenset({True, 2})",
        ),
        (SchubertSubset, (2, frozenset({1})), "subset must have exactly 2 elements"),
        (SchubertSubset, (2, frozenset({1, 5})), "element 5 outside 1..4"),
        (SchubertSubset, (2, frozenset({1, 4})), "antipodal elements 1 and 4 both present"),
        (SchubertSubset, (2, frozenset({1, 3})), "odd number of first-half positions missing (1)"),
        (PartialFPFInvolution, ([2, 1],), "pfpf values must be a tuple, got [2, 1]"),
        (PartialFPFInvolution, ((1.5, 0),), "value 1.5 is not an int"),
        (PartialFPFInvolution, ((2, True),), "value True is not an int"),
        (PartialFPFInvolution, ((3, 0),), "value 3 outside 0..2"),
        (PartialFPFInvolution, ((1, 0),), "fixed point at 1"),
        (PartialFPFInvolution, ((2, 0),), "not symmetric at (1, 2)"),
    ],
)
def test_post_init_refusals_keep_their_messages(cls, values, message):
    for args, kwargs in ((values, {}), ((), dict(zip(cls._fields, values)))):
        with pytest.raises(ClanError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == message

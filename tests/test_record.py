"""Record: the frozen value base class of the library's data types."""

import pytest

from unilie.algebra import StructureTensor
from unilie.linear import derivation_dim
from unilie.analysis import is_heisenberg_type
from unilie.classification import Invariants
from unilie.constructions import FiniteGroup, cyclic_group
from unilie.graphs import ColorPermAutomorphism, NonProper, NotRegular, UniformityReport


class TestConstruction:
    def test_positional_keyword_and_default(self):
        a = ColorPermAutomorphism((2, 1), (1,))
        b = ColorPermAutomorphism(vertex_images=(2, 1), color_images=(1,))
        c = ColorPermAutomorphism((2, 1), color_images=(1,), strict=False)
        assert a == b == c
        assert a.strict is False
        assert ColorPermAutomorphism((2, 1), (1,), True).strict is True

    def test_default_name(self):
        g = FiniteGroup(2, ((0, 1), (1, 0)))
        assert g.name == ""
        assert g == FiniteGroup(2, ((0, 1), (1, 0)), "")
        assert cyclic_group(2).name == "C2"

    @pytest.mark.parametrize("args,kwargs,match", [
        ((1,), {}, "missing argument 'color'"),
        ((), {"vertex": 1}, "missing argument 'color'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
        ((1, 2), {"shade": 3}, "unexpected keyword argument 'shade'"),
        ((1,), {"vertex": 2, "color": 3}, "multiple values for argument 'vertex'"),
    ])
    def test_bad_arguments(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            NonProper(*args, **kwargs)


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        v = NonProper(1, 2)
        with pytest.raises(AttributeError):
            v.vertex = 3
        with pytest.raises(AttributeError):
            v.other = 3
        with pytest.raises(AttributeError):
            del v.vertex
        assert v == NonProper(1, 2)


class TestValueSemantics:
    def test_hash_is_hash_of_field_tuple(self):
        rep = UniformityReport(False, 2, 3, 1, 1, (NonProper(1, 2),))
        assert hash(rep) == hash((False, 2, 3, 1, 1, (NonProper(1, 2),)))
        assert hash(NonProper(1, 2)) == hash((1, 2))
        assert hash(cyclic_group(3)) == hash((3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), "C3"))

    def test_equality_needs_the_same_class(self):
        assert NonProper(1, 2) != NotRegular(1, 2)
        assert NonProper(1, 2) != (1, 2)
        assert NonProper(1, 2) == NonProper(1, 2)
        assert NonProper(1, 2) != NonProper(2, 1)
        assert len({NonProper(1, 2), NotRegular(1, 2), NonProper(1, 2)}) == 2

    def test_equality_ignores_cached_values(self):
        t = StructureTensor.from_entries(4, 1, [(1, 2, 1, 1), (3, 4, 1, -1)])
        # every fact but the presentations is a cached value
        assert Invariants._fields == ("presentations",)
        warm, cold = Invariants((t,)), Invariants((t,))
        assert warm.derivation_dim == derivation_dim(t)
        assert warm.heisenberg == is_heisenberg_type(t)
        assert "derivation_dim" in vars(warm) and "derivation_dim" not in vars(cold)
        assert "heisenberg" in vars(warm) and "reports" in vars(warm)
        assert warm == cold and hash(warm) == hash(cold)

    def test_vars_holds_the_fields_in_order(self):
        rep = UniformityReport(is_uniform=True, p=1, q=2, r=1, s=1, violations=())
        assert list(vars(rep).items()) == [
            ("is_uniform", True), ("p", 1), ("q", 2), ("r", 1), ("s", 1),
            ("violations", ())]
        assert list(vars(NotRegular(degree=4, vertex=3))) == ["vertex", "degree"]

    def test_repr(self):
        assert repr(NonProper(1, 2)) == "NonProper(vertex=1, color=2)"
        assert repr(ColorPermAutomorphism((1,), (1,))) == (
            "ColorPermAutomorphism(vertex_images=(1,), color_images=(1,), strict=False)")

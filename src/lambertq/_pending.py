"""One rule for a result field formed on first read.

``formed_on_first_read(name)`` decorates a frozen dataclass; ``pending``
builds an instance of it that holds every field but ``name``, and in its
place a recipe: a function and the arguments the field is formed from.  The
first read calls the function, keeps the value as the field and drops the
recipe, so a later read forms nothing, and a caller that never reads the
field never pays for it.  An instance built by the dataclass's own
constructor holds the field from the start.

``==``, ``repr``, ``hash`` and ``dataclasses.replace`` read the field, and
``pickle`` and ``copy`` form it first, so each gives what an instance built
with the value would give.  The recipe's arguments must not change after the
call that built the instance: hold copies of anything the caller can reach.
"""

__all__ = ["formed_on_first_read", "pending"]


class _Field:
    """A non-data descriptor: attribute lookup finds it only while the
    instance's own dict lacks the field, that is, before the first read of
    a pending instance.  Two threads may both form the field; they form the
    same value, and the recipe is dropped only after a value is kept."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        state = obj.__dict__
        form, args = state["_pending"]
        value = state[self.name] = form(*args)
        state.pop("_pending", None)
        return value


def formed_on_first_read(name):
    """Class decorator, placed above ``@dataclass(frozen=True)``: field ``name``
    of an instance built by ``pending`` is formed on its first read."""
    def install(cls):
        def __getstate__(self):
            # pickle and copy carry the formed field, never the recipe
            if "_pending" in self.__dict__:
                getattr(self, name)
            return self.__dict__

        setattr(cls, name, _Field(name))
        cls.__getstate__ = __getstate__
        return cls
    return install


def pending(cls, form, args, **fields):
    """An instance of ``cls`` holding ``fields``, whose pending field is
    form(*args), formed on its first read."""
    out = object.__new__(cls)
    fields["_pending"] = (form, args)
    object.__setattr__(out, "__dict__", fields)  # the call's own dict becomes the instance's
    return out

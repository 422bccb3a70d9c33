"""Complete permutation polynomial families over finite fields."""

__version__ = "0.1.0"

from .field import CapExceeded, FieldCtx, build_field  # noqa: F401

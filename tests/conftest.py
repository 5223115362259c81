"""Test-session setup shared by every test module."""

import contextlib
import importlib
import warnings

# When a hypothesis property fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to write a patch for it.  Where libcst is
# installed, that import raises a DeprecationWarning (mypy_extensions'
# TypedDict), which the suite's -W error turns into an INTERNALERROR that
# hides the failure.  Importing the module once here, with that warning
# ignored, lets the failure be reported.  Without libcst there is no patch
# to write and nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")

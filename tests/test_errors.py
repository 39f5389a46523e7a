"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.ConfigError,
        errors.FlashError,
        errors.InvalidAddressError,
        errors.WriteToNonErasedPageError,
        errors.NotPresentError,
        errors.CacheFullError,
        errors.RecoveryError,
        errors.CrashError,
    ])
    def test_everything_derives_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_flash_errors_grouped(self):
        assert issubclass(errors.InvalidAddressError, errors.FlashError)
        assert issubclass(errors.WriteToNonErasedPageError, errors.FlashError)

    def test_not_present_carries_lbn(self):
        error = errors.NotPresentError(42)
        assert error.lbn == 42
        assert "42" in str(error)

    def test_single_catch_clause_suffices(self):
        """A caller can catch the whole library with one except clause."""
        with pytest.raises(errors.ReproError):
            raise errors.CacheFullError("full")

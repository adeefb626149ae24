"""Reference implementations kept only to check production code against."""

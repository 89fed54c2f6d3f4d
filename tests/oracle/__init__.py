"""Reference implementations kept only to verify the production fast paths."""

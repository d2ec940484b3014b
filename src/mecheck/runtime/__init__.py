"""Rule evaluation: values, query cache, interpreter."""

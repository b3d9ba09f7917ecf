"""Crawl-engine benchmark: workloads, span tracing and the ``run.py`` entry point."""

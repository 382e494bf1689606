"""perfbench: the benchmark every performance claim in this repo is
measured with.  Nothing under ``src/`` imports it; see README.md."""

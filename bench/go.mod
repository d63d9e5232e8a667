module divscrape/bench

go 1.24

require divscrape v0.0.0

replace divscrape => ../

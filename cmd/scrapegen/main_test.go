package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divscrape/internal/logfmt"
	"divscrape/internal/workload"
)

func TestRunWritesParseableDataset(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	labelPath := filepath.Join(dir, "labels.csv")
	err := run([]string{"-out", logPath, "-labels", labelPath, "-hours", "1", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}

	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	reader := logfmt.NewReader(lf, logfmt.ReaderConfig{Policy: logfmt.Strict})
	var n uint64
	for {
		_, err := reader.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("generated log does not parse strictly: %v", err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("empty log")
	}

	gf, err := os.Open(labelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	labels, err := workload.ReadLabels(gf)
	if err != nil {
		t.Fatalf("labels do not parse: %v", err)
	}
	if uint64(len(labels)) != n {
		t.Errorf("labels %d != log lines %d", len(labels), n)
	}
}

func TestRunSkipLabels(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	if err := run([]string{"-out", logPath, "-labels", "", "-hours", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "labels.csv")); err == nil {
		t.Error("label file created despite -labels ''")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-hours", "-1"}); err == nil {
		t.Error("negative hours accepted")
	}
	if err := run([]string{"-out", filepath.Join("nope", "deep", "x.log")}); err == nil {
		t.Error("unwritable path accepted")
	}
	if err := run([]string{"-bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Error("invalid flag accepted")
	}
}

package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/yu-verify/yu/internal/compose"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/topo"
)

// TestComposeDomainPanicContained: a panic in one compose domain's execution
// — a goroutine of its own — is Build's error, naming the panic, and not the
// end of the process.
func TestComposeDomainPanicContained(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wan-1.yu"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := config.ParseSpecString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(spec.Net, spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetExecHook(nil)
	core.SetExecHook(func(topo.Flow) { panic("injected domain panic") })
	_, err = compose.Build(spec.Net, spec.Configs, part, spec.Flows, compose.Options{K: spec.K, Mode: spec.Mode})
	if err == nil || !strings.Contains(err.Error(), "injected domain panic") {
		t.Fatalf("err = %v, want the injected panic as Build's error", err)
	}
}

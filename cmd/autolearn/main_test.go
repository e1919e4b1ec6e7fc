package main

import (
	"strings"
	"testing"
)

func TestCmdTracks(t *testing.T) {
	if err := cmdTracks(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPlacement(t *testing.T) {
	if err := cmdPlacement([]string{"-params", "100000"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdZero(t *testing.T) {
	if err := cmdZero([]string{"-image-mb", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTwin(t *testing.T) {
	if err := cmdTwin([]string{"-ticks", "120"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCollectRequiresOut(t *testing.T) {
	if err := cmdCollect(nil); err == nil {
		t.Error("missing -out accepted")
	}
}

func TestCmdCleanRequiresTub(t *testing.T) {
	if err := cmdClean(nil); err == nil {
		t.Error("missing -tub accepted")
	}
}

func TestCmdTrainRequiresArgs(t *testing.T) {
	if err := cmdTrain(nil); err == nil {
		t.Error("missing flags accepted")
	}
}

func TestCmdEvaluateRequiresModel(t *testing.T) {
	if err := cmdEvaluate(nil); err == nil {
		t.Error("missing -model accepted")
	}
}

func TestCmdMergeRequiresArgs(t *testing.T) {
	if err := cmdMerge(nil); err == nil {
		t.Error("missing args accepted")
	}
}

func TestCollectCleanTrainEvaluateFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	tubDir := dir + "/tub"
	ckpt := dir + "/model.ckpt"
	if err := cmdCollect([]string{"-out", tubDir, "-ticks", "400"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClean([]string{"-tub", tubDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-tub", tubDir, "-out", ckpt, "-epochs", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200"}); err != nil {
		t.Fatal(err)
	}
	// The same checkpoint must evaluate on the int8 path, reporting its
	// drift against float64; an unknown mode is rejected up front.
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200", "-quant", "int8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200", "-quant", "int4"}); err == nil {
		t.Fatal("evaluate accepted unsupported quantization mode")
	}
}

// TestCmdFedTrainRejectsFlagMistakes pins fed-train's up-front checks: a
// flag of the other topology, an unknown topology or peer link, and
// -faults with -scenario all fail before any driving is collected. With
// -ticks 1 a run that got past the checks fails on its tiny drive
// instead, which is what the accepted combinations expect.
func TestCmdFedTrainRejectsFlagMistakes(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "gossip", "-quorum", "2"}, "-quorum"},
		{[]string{"-topology", "gossip", "-hierarchical"}, "-hierarchical"},
		{[]string{"-topology", "gossip", "-regions", "2"}, "-regions"},
		{[]string{"-topology", "gossip", "-ingress-serial"}, "-ingress-serial"},
		{[]string{"-fanout", "2"}, "-fanout"},
		{[]string{"-topology", "star", "-peer-k", "3"}, "-peer-k"},
		{[]string{"-anti-entropy", "1"}, "-anti-entropy"},
		{[]string{"-peer-link", "nosuch"}, "-peer-link"},
		{[]string{"-topology", "gossip", "-peer-link", "nosuch"}, "unknown -peer-link"},
		{[]string{"-topology", "mesh"}, "unknown -topology"},
		{[]string{"-faults", "lossy-wan", "-scenario", "scenarios/clean.scn"}, "mutually exclusive"},
		{[]string{"-topology", "gossip", "-fanout", "2", "-peer-link", "wifi-local"}, "raise -ticks"},
		{[]string{"-quorum", "2", "-hierarchical", "-regions", "2", "-ingress-serial"}, "raise -ticks"},
	}
	for _, c := range cases {
		err := cmdFedTrain(append(c.args, "-ticks", "1"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("fed-train %v: got %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

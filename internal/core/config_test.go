package core

import "testing"

func TestNotationRoundTrip(t *testing.T) {
	names := []string{
		"quick,naive,susp", "quick,opt,page", "quick,opt,split",
		"repl1,naive,page", "repl1,opt,split", "repl6,opt,split",
		"repl6,naive,susp", "repl12,opt,page",
	}
	for _, n := range names {
		cfg, err := ParseNotation(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if got := cfg.Notation(); got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
	}
}

func TestParseNotationErrors(t *testing.T) {
	for _, bad := range []string{
		"", "quick", "quick,opt", "bubble,opt,split", "quick,fast,split",
		"quick,opt,magic", "repl0,opt,split", "replX,opt,split", "a,b,c,d",
	} {
		if _, err := ParseNotation(bad); err == nil {
			t.Fatalf("ParseNotation(%q) should fail", bad)
		}
	}
}

func TestDefaultConfigIsPaperRecommendation(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Notation() != "repl6,opt,split" {
		t.Fatalf("default = %s, want repl6,opt,split (paper's conclusion)", cfg.Notation())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNormalizes(t *testing.T) {
	cfg := SortConfig{Method: Quick, PageRecords: 8}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.BlockPages != 1 {
		t.Fatalf("normalization failed: %+v", cfg)
	}
	bad := SortConfig{PageRecords: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("PageRecords=0 must fail")
	}
}

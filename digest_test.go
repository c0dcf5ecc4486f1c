package configvalidator

import (
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

// TestConfigDigestGolden pins ConfigDigest's bytes: journals on disk hold
// these digests, and a resumed run replays a record only when the digest
// it computes equals the journaled one. A change to the digest's input
// order or encoding would silently turn every existing journal into a full
// re-scan, so any change here must be deliberate. The overlapping manifest
// pins that a file under two search roots is hashed once per root.
func TestConfigDigestGolden(t *testing.T) {
	ubuntu, _ := fixtures.UbuntuHost("golden-ubuntu", fixtures.Profile{Seed: 11, MisconfigRate: 0.3})
	system, _ := fixtures.SystemHost("golden-system", fixtures.Profile{Seed: 23, MisconfigRate: 0.5})
	img, _ := fixtures.Image("golden-app", "v1", fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	builtin, err := New()
	if err != nil {
		t.Fatal(err)
	}
	overlapping, err := New(WithManifest(&cvl.Manifest{Entries: []*cvl.ManifestEntry{
		{Name: "sshd", Enabled: true, ConfigSearchPaths: []string{"/etc/ssh"}, CVLFile: "component_configs/sshd.yaml"},
		{Name: "etc", Enabled: true, ConfigSearchPaths: []string{"/etc", "/etc/ssh"}, CVLFile: "component_configs/sysctl.yaml"},
	}}, rules.Reader()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v      *Validator
		ent    Entity
		target string
		want   string
	}{
		{builtin, ubuntu, "", "3a402513306f907db35cfb2022f83508ea482649bac87d2c3501ad6c19990008"},
		{builtin, ubuntu, "sshd", "6f6ce1514e53e57c44f39e205ac1827035d33d915530cee23069aa0b22180311"},
		{builtin, system, "", "5043c7bb00f146b32ecee47f90a5f0a77685380ace761e03cc58dcbaf0931b81"},
		{builtin, system, "sysctl", "fa7c6852e946269e57ede40e406e4dfc8c80eab3dcbab1ad8fd8e0e468fc76c3"},
		{builtin, img.Entity(), "", "d8392273806313f8e5c2b1fb32a8c7485fc63ab8aeeccab53d740670fc429e04"},
		{builtin, img.Entity(), "nginx", "f15e18a6e30afc94b56915dd184d2c34b0a5a334d391aec58b93ea7c5a99891d"},
		{overlapping, ubuntu, "", "ba050cd75bf1f886020614be1562da6631215fd2a3b51dca48e1dc9c62395e49"},
	} {
		got, err := tc.v.ConfigDigest(tc.ent, tc.target)
		if err != nil {
			t.Fatalf("%s/%q: %v", tc.ent.Name(), tc.target, err)
		}
		if got != tc.want {
			t.Errorf("%s/%q: digest %s, want %s", tc.ent.Name(), tc.target, got, tc.want)
		}
	}
}

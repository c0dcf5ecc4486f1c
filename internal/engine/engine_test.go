package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// mustRules parses a CVL rule-file source.
func mustRules(t *testing.T, src string) []*cvl.Rule {
	t.Helper()
	rf, err := cvl.ParseRuleFile("test.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return rf.Rules
}

func runRules(t *testing.T, ent entity.Entity, src string, paths ...string) *Report {
	t.Helper()
	report, err := New(nil).ValidateRules(ent, mustRules(t, src), paths)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// one extracts the single rule result from a report (ignoring config-error
// results).
func one(t *testing.T, rep *Report) *Result {
	t.Helper()
	var out *Result
	for _, r := range rep.Results {
		if r.Rule != nil {
			if out != nil {
				t.Fatalf("multiple rule results: %+v", rep.Results)
			}
			out = r
		}
	}
	if out == nil {
		t.Fatalf("no rule results in %+v", rep.Results)
	}
	return out
}

func nginxEntity(sslProtocols string) *entity.Mem {
	m := entity.NewMem("web", entity.TypeHost)
	conf := fmt.Sprintf(`user www-data;
http {
    server {
        listen 443 ssl;
        ssl_certificate /etc/ssl/cert.pem;
        ssl_certificate_key /etc/ssl/key.pem;
        ssl_protocols %s;
    }
}
`, sslProtocols)
	m.AddFile("/etc/nginx/nginx.conf", []byte(conf))
	return m
}

const listing2Rule = `
config_name: ssl_protocols
config_path: ["server", "http/server"]
config_description: "Enables the specified SSL protocols."
preferred_value: [ "TLSv1.2", "TLSv1.3" ]
non_preferred_value: [ "SSLv2", "SSLv3", "TLSv1 ", "TLSv1;" ]
non_preferred_value_match: substr,any
preferred_value_match: substr,all
not_present_description: "ssl_protocols is not present."
not_matched_preferred_value_description: "Non-recommended TLS ver."
matched_description: "ssl_protocols key is set to TLS v1.2/1.3"
tags: ["#security", "#ssl", "#owasp"]
require_other_configs: [ listen, ssl_certificate, ssl_certificate_key ]
file_context: ["nginx.conf", "sites-enabled"]
`

func TestTreeRuleListing2Pass(t *testing.T) {
	rep := runRules(t, nginxEntity("TLSv1.2 TLSv1.3"), listing2Rule, "/etc/nginx")
	res := one(t, rep)
	if res.Status != StatusPass {
		t.Fatalf("status = %v: %s (%s)", res.Status, res.Message, res.Detail)
	}
	if res.Message != "ssl_protocols key is set to TLS v1.2/1.3" {
		t.Errorf("message = %q", res.Message)
	}
	if res.File != "/etc/nginx/nginx.conf" {
		t.Errorf("file = %q", res.File)
	}
}

func TestTreeRuleListing2FailNonPreferred(t *testing.T) {
	rep := runRules(t, nginxEntity("SSLv3 TLSv1.2 TLSv1.3"), listing2Rule, "/etc/nginx")
	res := one(t, rep)
	if res.Status != StatusFail {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Message != "Non-recommended TLS ver." {
		t.Errorf("message = %q", res.Message)
	}
	if !strings.Contains(res.Detail, "non-preferred") {
		t.Errorf("detail = %q", res.Detail)
	}
}

func TestTreeRuleListing2FailMissingPreferred(t *testing.T) {
	rep := runRules(t, nginxEntity("TLSv1.2"), listing2Rule, "/etc/nginx")
	if res := one(t, rep); res.Status != StatusFail {
		t.Fatalf("substr,all should require both protocols: %v", res.Status)
	}
}

func TestTreeRuleNotPresent(t *testing.T) {
	m := entity.NewMem("web", entity.TypeHost)
	m.AddFile("/etc/nginx/nginx.conf", []byte("http {\n  server {\n    listen 443 ssl;\n    ssl_certificate a;\n    ssl_certificate_key b;\n  }\n}\n"))
	rep := runRules(t, m, listing2Rule, "/etc/nginx")
	res := one(t, rep)
	if res.Status != StatusFail || res.Message != "ssl_protocols is not present." {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
}

func TestTreeRuleRequireOtherConfigsNA(t *testing.T) {
	// Server without SSL configured: the ssl_protocols rule must not fire.
	m := entity.NewMem("web", entity.TypeHost)
	m.AddFile("/etc/nginx/nginx.conf", []byte("http {\n  server {\n    listen 80;\n  }\n}\n"))
	rep := runRules(t, m, listing2Rule, "/etc/nginx")
	res := one(t, rep)
	if res.Status != StatusNotApplicable {
		t.Fatalf("status = %v, want N/A", res.Status)
	}
	if !strings.Contains(res.Detail, "ssl_certificate") {
		t.Errorf("detail = %q", res.Detail)
	}
}

func TestTreeRuleNoConfigsNA(t *testing.T) {
	m := entity.NewMem("empty", entity.TypeHost)
	rep := runRules(t, m, listing2Rule, "/etc/nginx")
	if res := one(t, rep); res.Status != StatusNotApplicable {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestTreeRuleFileContextFilters(t *testing.T) {
	m := entity.NewMem("web", entity.TypeHost)
	// Same key in a file the context excludes.
	m.AddFile("/etc/sysctl.conf", []byte("ssl_protocols = bad\n"))
	rule := `
config_name: ssl_protocols
config_path: [""]
file_context: ["nginx.conf"]
preferred_value: ["TLSv1.2"]
`
	rep := runRules(t, m, rule, "/etc")
	if res := one(t, rep); res.Status != StatusNotApplicable {
		t.Fatalf("file_context should exclude sysctl.conf: %v", res.Status)
	}
}

func TestTreeRuleAbsentPass(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("Port 22\n"))
	rule := `
config_name: DebugLevel
config_path: [""]
absent_pass: true
non_preferred_value: ["3"]
not_present_description: "DebugLevel not set (good)"
`
	rep := runRules(t, m, rule, "/etc/ssh")
	res := one(t, rep)
	if res.Status != StatusPass || res.Message != "DebugLevel not set (good)" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
}

func TestTreeRuleOccurrence(t *testing.T) {
	conf := `http {
    server {
        listen 443 ssl;
        ssl_protocols TLSv1.2;
    }
    server {
        listen 8443 ssl;
        ssl_protocols SSLv3;
    }
}
`
	m := entity.NewMem("web", entity.TypeHost)
	m.AddFile("/etc/nginx/nginx.conf", []byte(conf))
	base := `
config_name: ssl_protocols
config_path: ["http/server"]
preferred_value: ["TLSv1.2"]
preferred_value_match: substr,any
occurrence: %s
`
	// all (default): one bad server block fails the rule.
	rep := runRules(t, m, fmt.Sprintf(base, "all"), "/etc/nginx")
	if res := one(t, rep); res.Status != StatusFail {
		t.Errorf("occurrence all = %v", res.Status)
	}
	// any: one good server block passes.
	rep = runRules(t, m, fmt.Sprintf(base, "any"), "/etc/nginx")
	if res := one(t, rep); res.Status != StatusPass {
		t.Errorf("occurrence any = %v", res.Status)
	}
	// first: only the first hit is considered (it is good).
	rep = runRules(t, m, fmt.Sprintf(base, "first"), "/etc/nginx")
	if res := one(t, rep); res.Status != StatusPass {
		t.Errorf("occurrence first = %v", res.Status)
	}
}

func TestTreeRuleCaseInsensitive(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin NO\n"))
	rule := `
config_name: PermitRootLogin
config_path: [""]
preferred_value: ["no"]
case_insensitive: true
`
	rep := runRules(t, m, rule, "/etc/ssh")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("case-insensitive match failed: %v", res.Status)
	}
}

func TestTreeRuleRegexMatch(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin without-password\n"))
	rule := `
config_name: PermitRootLogin
config_path: [""]
preferred_value: ["^(no|without-password)$"]
preferred_value_match: regex,any
`
	rep := runRules(t, m, rule, "/etc/ssh")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("regex match failed: %v %s", res.Status, res.Detail)
	}
	bad := `
config_name: PermitRootLogin
config_path: [""]
preferred_value: ["(unclosed"]
preferred_value_match: regex,any
`
	rep = runRules(t, m, bad, "/etc/ssh")
	if res := one(t, rep); res.Status != StatusError {
		t.Fatalf("bad regex should be an error result: %v", res.Status)
	}
}

func TestTreeRulePresenceOnly(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("Banner /etc/issue.net\n"))
	rule := "config_name: Banner\nconfig_path: [\"\"]\n"
	rep := runRules(t, m, rule, "/etc/ssh")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("presence check = %v", res.Status)
	}
}

func TestTreeRuleValueSeparator(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("Ciphers aes256-ctr,aes128-ctr\n"))
	rule := `
config_name: Ciphers
config_path: [""]
value_separator: ","
preferred_value: ["^aes(128|192|256)-ctr$"]
preferred_value_match: regex,any
`
	rep := runRules(t, m, rule, "/etc/ssh")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("element-wise pass: %v (%s)", res.Status, res.Detail)
	}
	// One weak element in the list fails the whole rule.
	m.AddFile("/etc/ssh/sshd_config", []byte("Ciphers aes256-ctr,3des-cbc\n"))
	rep = runRules(t, m, rule, "/etc/ssh")
	res := one(t, rep)
	if res.Status != StatusFail || !strings.Contains(res.Detail, "3des-cbc") {
		t.Fatalf("element-wise fail: %v (%s)", res.Status, res.Detail)
	}
}

// --- schema rules ---

const listing3Rule = `
config_schema_name: check_tmp_separate_partition
config_schema_description: "Check if /tmp is on a separate partition"
query_constraints: "dir = ?"
query_constraints_value: ["/tmp"]
query_columns: "*"
non_preferred_value: [""]
non_preferred_value_match: exact,all
not_matched_preferred_value_description: "/tmp not on sep. partition"
matched_description: "/tmp is on a separate partition"
tags: ["#cis", "#cisubuntu14.04_2.1"]
`

func TestSchemaRuleListing3(t *testing.T) {
	withTmp := entity.NewMem("h", entity.TypeHost)
	withTmp.AddFile("/etc/fstab", []byte("/dev/sda1 / ext4 defaults 0 1\n/dev/sda2 /tmp ext4 nodev 0 2\n"))
	rep := runRules(t, withTmp, listing3Rule, "/etc/fstab")
	res := one(t, rep)
	if res.Status != StatusPass || res.Message != "/tmp is on a separate partition" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}

	withoutTmp := entity.NewMem("h", entity.TypeHost)
	withoutTmp.AddFile("/etc/fstab", []byte("/dev/sda1 / ext4 defaults 0 1\n"))
	rep = runRules(t, withoutTmp, listing3Rule, "/etc/fstab")
	res = one(t, rep)
	if res.Status != StatusFail || res.Message != "/tmp not on sep. partition" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
}

func TestSchemaRuleExpectRows(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/audit/audit.rules", []byte("-w /etc/passwd -p wa -k identity\n-w /etc/group -p wa -k identity\n"))
	rule := `
config_schema_name: identity_watches
query_constraints: "key = ?"
query_constraints_value: ["identity"]
expect_rows: ">=2"
matched_description: "identity files are watched"
`
	rep := runRules(t, m, rule, "/etc/audit")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("expect_rows >=2 = %v (%s)", res.Status, res.Detail)
	}
	strict := strings.Replace(rule, ">=2", "3", 1)
	rep = runRules(t, m, strict, "/etc/audit")
	res := one(t, rep)
	if res.Status != StatusFail || !strings.Contains(res.Detail, "2 rows") {
		t.Fatalf("exact expect_rows = %v (%s)", res.Status, res.Detail)
	}
}

func TestSchemaRuleValueMatchOnRows(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/passwd", []byte("root:x:0:0:root:/root:/bin/bash\nbad:x:0:1:dup root uid:/home/bad:/bin/bash\n"))
	// CIS: only root may have UID 0.
	rule := `
config_schema_name: only_root_uid0
query_constraints: "uid = ?"
query_constraints_value: ["0"]
query_columns: ["name"]
preferred_value: ["root"]
not_matched_preferred_value_description: "non-root account with UID 0"
`
	rep := runRules(t, m, rule, "/etc/passwd")
	res := one(t, rep)
	if res.Status != StatusFail || res.Message != "non-root account with UID 0" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
}

func TestSchemaRuleNoTablesNA(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	rep := runRules(t, m, listing3Rule, "/etc/fstab")
	if res := one(t, rep); res.Status != StatusNotApplicable {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestSchemaRuleSkipsForeignTables(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/fstab", []byte("/dev/sda2 /tmp ext4 nodev 0 2\n"))
	m.AddFile("/etc/passwd", []byte("root:x:0:0:root:/root:/bin/bash\n"))
	rep := runRules(t, m, listing3Rule, "/etc")
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("foreign table broke query: %v (%s)", res.Status, res.Message)
	}
}

// --- path rules ---

func TestPathRuleListing4(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\n"), entity.WithMode(0o644), entity.WithOwner(0, 0))
	rule := `
path_name: /etc/mysql/my.cnf
path_description: "Permissions and ownership for mysql config file"
ownership: "0:0"
permission: 644
tags: [ "#owasp" ]
`
	rep := runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("res = %v (%s)", res.Status, res.Detail)
	}

	m2 := entity.NewMem("h", entity.TypeHost)
	m2.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\n"), entity.WithMode(0o666), entity.WithOwner(0, 0))
	rep = runRules(t, m2, rule)
	res := one(t, rep)
	if res.Status != StatusFail || !strings.Contains(res.Detail, "0666") {
		t.Fatalf("res = %v (%s)", res.Status, res.Detail)
	}

	m3 := entity.NewMem("h", entity.TypeHost)
	m3.AddFile("/etc/mysql/my.cnf", []byte("x"), entity.WithMode(0o644), entity.WithOwner(106, 110))
	rep = runRules(t, m3, rule)
	res = one(t, rep)
	if res.Status != StatusFail || !strings.Contains(res.Detail, "106:110") {
		t.Fatalf("ownership fail = %v (%s)", res.Status, res.Detail)
	}
}

func TestPathRuleMissing(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	rule := "path_name: /etc/shadow\nownership: \"0:42\"\nnot_present_description: \"shadow file missing!\"\n"
	rep := runRules(t, m, rule)
	res := one(t, rep)
	if res.Status != StatusFail || res.Message != "shadow file missing!" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
}

func TestPathRuleExists(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/hosts.equiv", []byte(""))
	rule := "path_name: /etc/hosts.equiv\nexists: false\nnot_matched_preferred_value_description: \"hosts.equiv must be removed\"\n"
	rep := runRules(t, m, rule)
	res := one(t, rep)
	if res.Status != StatusFail || res.Message != "hosts.equiv must be removed" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}
	m.RemoveFile("/etc/hosts.equiv")
	rep = runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("absent forbidden path = %v", res.Status)
	}
}

func TestPathRuleMaxPermission(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/crontab", []byte(""), entity.WithMode(0o600))
	rule := "path_name: /etc/crontab\nmax_permission: 600\n"
	rep := runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("0600 within max 0600 = %v", res.Status)
	}
	m.AddFile("/etc/crontab", []byte(""), entity.WithMode(0o644))
	rep = runRules(t, m, rule)
	res := one(t, rep)
	if res.Status != StatusFail || !strings.Contains(res.Detail, "exceeds maximum") {
		t.Fatalf("0644 vs max 0600 = %v (%s)", res.Status, res.Detail)
	}
}

func TestPathRuleDirectory(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddDir("/etc/cron.d", entity.WithMode(0o700), entity.WithOwner(0, 0))
	rule := "path_name: /etc/cron.d\nownership: \"0:0\"\npermission: 700\n"
	rep := runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusPass {
		t.Fatalf("directory rule = %v (%s)", res.Status, res.Detail)
	}
}

// --- script rules ---

func TestScriptRule(t *testing.T) {
	m := entity.NewMem("db", entity.TypeContainer)
	m.SetFeature("mysql.ssl", "have_ssl YES\nhave_openssl YES\n")
	rule := `
script_name: mysql_ssl_enabled
script_feature: mysql.ssl
preferred_value: ["have_ssl YES"]
preferred_value_match: substr,all
matched_description: "MySQL has SSL enabled"
not_matched_preferred_value_description: "MySQL SSL is disabled"
`
	rep := runRules(t, m, rule)
	res := one(t, rep)
	if res.Status != StatusPass || res.Message != "MySQL has SSL enabled" {
		t.Fatalf("res = %v %q", res.Status, res.Message)
	}

	m.SetFeature("mysql.ssl", "have_ssl DISABLED\n")
	rep = runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusFail {
		t.Fatalf("res = %v", res.Status)
	}
}

func TestScriptRuleFeatureUnavailable(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	rule := "script_name: x\nscript_feature: absent.plugin\npreferred_value: [y]\n"
	rep := runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusNotApplicable {
		t.Fatalf("res = %v", res.Status)
	}
}

// --- error handling & misc ---

func TestBrokenConfigYieldsErrorResult(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/nginx/nginx.conf", []byte("server {\n")) // unclosed block
	rep := runRules(t, m, "config_name: user\nconfig_path: [\"\"]\n", "/etc/nginx")
	var errRes, ruleRes *Result
	for _, r := range rep.Results {
		if r.Rule == nil {
			errRes = r
		} else {
			ruleRes = r
		}
	}
	if errRes == nil || errRes.Status != StatusDegraded || errRes.File != "/etc/nginx/nginx.conf" {
		t.Fatalf("parse error result = %+v", errRes)
	}
	if ruleRes == nil || ruleRes.Status != StatusNotApplicable {
		t.Fatalf("rule result = %+v", ruleRes)
	}
}

func TestEntityTypeFilter(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("Port 22\n"))
	rule := "config_name: Port\nconfig_path: [\"\"]\napplies_to: [\"image\"]\n"
	rep := runRules(t, m, rule, "/etc/ssh")
	if len(rep.Results) != 0 {
		t.Fatalf("image-only rule ran on host: %+v", rep.Results)
	}
}

func TestCompositeInValidateRulesErrors(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	rule := "composite_rule_name: x\ncomposite_rule: a.b && c.d\n"
	rep := runRules(t, m, rule)
	if res := one(t, rep); res.Status != StatusError {
		t.Fatalf("composite without manifest = %v", res.Status)
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{Results: []*Result{
		{Status: StatusPass, Rule: &cvl.Rule{Name: "a", Tags: []string{"#cis"}}},
		{Status: StatusFail, Rule: &cvl.Rule{Name: "b", Tags: []string{"#owasp"}}},
		{Status: StatusFail, Rule: &cvl.Rule{Name: "c", Tags: []string{"#cis"}}},
		{Status: StatusError},
	}}
	counts := rep.Counts()
	if counts[StatusPass] != 1 || counts[StatusFail] != 2 || counts[StatusError] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if got := rep.Failed(); len(got) != 2 {
		t.Errorf("failed = %d", len(got))
	}
	if got := rep.ByTag("#cis"); len(got) != 2 {
		t.Errorf("by tag = %d", len(got))
	}
	if !(&Result{Status: StatusPass}).Passed() || (&Result{Status: StatusFail}).Passed() {
		t.Error("Passed() broken")
	}
}

func TestStatusString(t *testing.T) {
	if StatusPass.String() != "PASS" || StatusFail.String() != "FAIL" ||
		StatusNotApplicable.String() != "N/A" || StatusError.String() != "ERROR" {
		t.Error("status names wrong")
	}
	if !strings.Contains(Status(42).String(), "42") {
		t.Error("unknown status should include number")
	}
}

// TestNewEnablesMemoWithParseCache pins how New decides on the verdict
// memo: on exactly when the crawler shares a parse cache.
func TestNewEnablesMemoWithParseCache(t *testing.T) {
	if New(nil).memo != nil {
		t.Error("engine without a parse cache memoizes verdicts")
	}
	if New(crawler.New(nil, crawler.Options{Cache: crawler.NewParseCache(0)})).memo == nil {
		t.Error("engine over a parse-cached crawler does not memoize verdicts")
	}
}

// listing1Manifest parses the Listing 1 manifest and returns it with a
// reader over its rule files.
func listing1Manifest(t *testing.T) (*cvl.Manifest, cvl.FileReader) {
	t.Helper()
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	return manifest, func(path string) ([]byte, error) { return []byte(listing1Files[path]), nil }
}

// panicWalkEntity panics during entity access — the failure mode of a
// corrupted backend.
type panicWalkEntity struct {
	*entity.Mem
}

func (p *panicWalkEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	panic("walk exploded")
}

// TestWalkPanicPropagates pins that an entity-access panic is not
// swallowed by the engine: it reaches the caller (where the fleet layer
// converts it) with its original value.
func TestWalkPanicPropagates(t *testing.T) {
	manifest, read := listing1Manifest(t)
	ent := &panicWalkEntity{Mem: stackEntity(true, "0", "/etc/mysql/cacert.pem")}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("entity-access panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "walk exploded" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	_, _ = New(nil).Validate(ent, manifest, read)
}

// failWalkEntity fails every walk and counts them — an entity whose
// backend is down.
type failWalkEntity struct {
	*entity.Mem
	walks atomic.Int64
}

func (f *failWalkEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	f.walks.Add(1)
	return fmt.Errorf("store down")
}

// TestWalkFailureAbortsAtFirstEntry pins the error semantics of an
// entity that cannot be walked: validation stops at the first manifest
// entry after one walk — a retry budget or a flaky backend pays for one
// access per attempt, not one per entry — and the error names that entry.
func TestWalkFailureAbortsAtFirstEntry(t *testing.T) {
	manifest, read := listing1Manifest(t)
	ent := &failWalkEntity{Mem: stackEntity(true, "0", "/etc/mysql/cacert.pem")}
	_, err := New(nil).Validate(ent, manifest, read)
	if err == nil {
		t.Fatal("validation of an unwalkable entity succeeded")
	}
	if walks := ent.walks.Load(); walks != 1 {
		t.Errorf("%d walks, want 1", walks)
	}
	first := manifest.EnabledEntries()[0].Name
	if want := "engine: entity " + first + ": "; !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "store down") {
		t.Errorf("error %q, want prefix %q and the walk error", err, want)
	}
}

// TestCachedSourceDefensiveCopy pins the aliasing fix: callers may append
// to and reorder the slice Resolve returns without corrupting what later
// callers see.
func TestCachedSourceDefensiveCopy(t *testing.T) {
	const twoRules = `
config_name: first
config_path: [""]
preferred_value: ["1"]
---
config_name: second
config_path: [""]
preferred_value: ["2"]
`
	src := NewCachedSource(func(path string) ([]byte, error) { return []byte(twoRules), nil })
	got, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("resolved %d rules, want 2", len(got))
	}
	// Mutations a filtering caller performs: reorder and append.
	got[0], got[1] = got[1], got[0]
	_ = append(got, got[0])

	again, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].Name != "first" || again[1].Name != "second" {
		names := make([]string, len(again))
		for i, r := range again {
			names[i] = r.Name
		}
		t.Fatalf("second Resolve sees mutated slice %v, want [first second]", names)
	}
	// And the two calls must not share a backing array.
	if &got[0] == &again[0] {
		t.Fatal("Resolve returned the same backing array twice")
	}
}

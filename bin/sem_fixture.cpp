typedef int a;
int f() { a * b; return 0; }

typedef int a;
int f () { a * b; c (d); return 0; }
